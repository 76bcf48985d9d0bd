package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is BENCHMARK.json: the contract the runner measures to. The runner
// reads workload names, metric names, units, directions and bounds from it
// and refuses a name that is not declared there.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: workloads, end_to_end and per_layer must all be declared", path)
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// declared returns the metrics of one pass: end-to-end for an untraced run,
// per-layer for a traced one.
func (s *spec) declared(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// metricValue is a metric as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render checks a run's metrics against the declaration and attaches units.
// A measured metric that is not declared is refused. A declared end-to-end
// metric must have been measured; a declared per-layer metric that the
// workload's layers never produce reads 0, since that layer did no work.
func (s *spec) render(trace bool, measured map[string]float64) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	for _, m := range s.declared(trace) {
		v, ok := measured[m.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("declared metric %q was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	var undeclared []string
	for name := range measured {
		if _, ok := out[name]; !ok {
			undeclared = append(undeclared, name)
		}
	}
	if len(undeclared) > 0 {
		sort.Strings(undeclared)
		return nil, fmt.Errorf("measured metrics not declared in BENCHMARK.json: %v", undeclared)
	}
	return out, nil
}
