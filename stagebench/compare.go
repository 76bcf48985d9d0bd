package main

import (
	"fmt"
	"io"
)

// quartiles are the cut points of Python's statistics.quantiles(v, n=4), the
// estimator the benchmark's acceptance rules are written in. One value is
// its own quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := sortedCopy(values)
	m := len(v)
	if m == 1 {
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// sample is one side of a comparison: a metric's values over a record's runs.
type sample struct {
	values     []float64
	q1, q2, q3 float64
}

func newSample(values []float64) sample {
	s := sample{values: values}
	s.q1, s.q2, s.q3 = quartiles(values)
	return s
}

// spread is the inter-quartile range as a share of the median.
func (s sample) spread() float64 {
	if s.q2 == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.q2
}

func (s sample) String() string {
	return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", s.q2, s.q1, s.q3, len(s.values))
}

// verdict marks a pair of samples of a gated metric, A the base and B the
// change. worsening is B's median relative to A's, positive when worse.
func verdict(m metricSpec, a, b sample) (v string, worsening float64) {
	if a.q2 != 0 {
		worsening = (b.q2 - a.q2) / a.q2
	}
	better := func(x, y float64) bool { return x < y }
	if m.Better == "higher" {
		worsening = -worsening
		better = func(x, y float64) bool { return x > y }
	}
	// all(x, y) reports whether every run of x reads better than every run of y.
	all := func(x, y sample) bool {
		for _, xv := range x.values {
			for _, yv := range y.values {
				if !better(xv, yv) {
					return false
				}
			}
		}
		return true
	}
	switch {
	case max(a.spread(), b.spread()) > m.Bound:
		// Too noisy to call, unless the two sides do not even overlap.
		if all(b, a) {
			return "better", worsening
		}
		if all(a, b) && worsening > m.Bound {
			return "worse", worsening
		}
		return "unresolved", worsening
	case worsening > m.Bound:
		return "worse", worsening
	case -worsening > a.spread():
		return "better", worsening
	}
	return "within-bound", worsening
}

// metricsOf collects, per workload and metric, the values of a record's runs
// of one pass.
func metricsOf(rec *record, trace bool) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rec.Runs {
		if r.Trace != trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out
}

// compareFiles prints, per workload and metric, both medians with quartiles
// and sample counts and B's ratio to A, and marks every gated pair. It
// returns how many pairs are worse beyond their bound.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) (worse int, err error) {
	a, err := readRecord(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "A = %s (%s, %s)\nB = %s (%s, %s)\n", pathA, a.Header.GoVersion, a.Header.CPUModel, pathB, b.Header.GoVersion, b.Header.CPUModel)
	if a.Header.Quick || b.Header.Quick {
		fmt.Fprintln(w, "note: at least one record is a -quick run; its numbers are not comparable with full runs")
	}
	for _, trace := range []bool{false, true} {
		ma, mb := metricsOf(a, trace), metricsOf(b, trace)
		for _, wl := range sp.Workloads {
			if ma[wl.Name] == nil || mb[wl.Name] == nil {
				continue
			}
			fmt.Fprintf(w, "\n%s", wl.Name)
			if trace {
				fmt.Fprint(w, " — per-layer (traced pass, not gated)")
			}
			fmt.Fprintf(w, "\n  %-40s %-6s %-44s %-44s %-18s %s\n", "metric", "unit", "A: median [q1, q3] n", "B: median [q1, q3] n", "B/A (base A)", "verdict")
			for _, m := range sp.declared(trace) {
				va, vb := ma[wl.Name][m.Name], mb[wl.Name][m.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				sa, sb := newSample(va), newSample(vb)
				ratio := "n/a"
				if sa.q2 != 0 {
					ratio = fmt.Sprintf("%.4f of %.6g", sb.q2/sa.q2, sa.q2)
				}
				mark := ""
				if !trace {
					v, worsening := verdict(m, sa, sb)
					mark = fmt.Sprintf("%s (%+.2f%% vs bound %.0f%%)", v, 100*worsening, 100*m.Bound)
					if v == "worse" {
						worse++
					}
				}
				fmt.Fprintf(w, "  %-40s %-6s %-44s %-44s %-18s %s\n", m.Name, m.Unit, sa, sb, ratio, mark)
			}
		}
	}
	return worse, nil
}
