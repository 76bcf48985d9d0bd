package synscan

// facade_test drives the public Analyzer, the metrics wiring and the
// evaluation door end to end, so the API surface is exercised from outside
// the internal packages.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/analysis"
	"github.com/synscan/synscan/internal/packet"
)

var (
	facadeOnce sync.Once
	facade2022 *YearData
)

// facadeData is one small simulated year, shared by the archive and query
// facade tests.
func facadeData(t testing.TB) *YearData {
	t.Helper()
	facadeOnce.Do(func() {
		var err error
		facade2022, err = Simulate(Config{Year: 2022, Seed: 2, Scale: 0.0005, TelescopeSize: 2048})
		if err != nil {
			panic(err)
		}
	})
	return facade2022
}

// TestFacadeAnalyzerWorkers: the sharded analyzer must detect the exact same
// campaign multiset as the sequential one, through the public facade.
func TestFacadeAnalyzerWorkers(t *testing.T) {
	stream := makeProbeStream(40000, 2048)
	run := func(opts ...AnalyzerOption) []string {
		a := NewAnalyzer(65536, opts...)
		for i := range stream {
			a.Ingest(&stream[i])
		}
		scans := a.Finish()
		keys := make([]string, len(scans))
		for i, s := range scans {
			keys[i] = fmt.Sprintf("%+v", *s)
		}
		sort.Strings(keys)
		return keys
	}
	want := run()
	for _, w := range []int{1, 2, 4} {
		got := run(WithWorkers(w))
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d scans, sequential %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: scan %d differs:\n got  %s\n want %s", w, i, got[i], want[i])
			}
		}
	}
}

// TestFacadeOnScanMatchesFinish: the streaming delivery model must see the
// identical campaign multiset that the accumulating Finish path returns,
// both sequentially and sharded, and it streams: a tail of probes from one
// more source, one every half hour for six hours, expires the stream's
// flows, which must reach the callback before Finish.
func TestFacadeOnScanMatchesFinish(t *testing.T) {
	stream := makeProbeStream(40000, 2048)
	last := stream[len(stream)-1].Time
	for i := 1; i <= 12; i++ {
		stream = append(stream, Probe{Time: last + int64(i)*int64(30*time.Minute),
			Src: 1 << 30, Dst: uint32(i), DstPort: 443, Flags: packet.FlagSYN})
	}
	keys := func(scans []*Scan) []string {
		out := make([]string, len(scans))
		for i, s := range scans {
			out[i] = fmt.Sprintf("%+v", *s)
		}
		sort.Strings(out)
		return out
	}
	run := func(opts ...AnalyzerOption) []string {
		a := NewAnalyzer(65536, opts...)
		for i := range stream {
			a.Ingest(&stream[i])
		}
		return keys(a.Finish())
	}
	for _, w := range []int{1, 3} {
		want := run(WithWorkers(w))
		var streamed []*Scan
		a := NewAnalyzer(65536, WithWorkers(w), WithOnScan(func(s *Scan) {
			streamed = append(streamed, s)
		}))
		for i := range stream {
			a.Ingest(&stream[i])
		}
		if len(streamed) == 0 {
			t.Fatalf("workers=%d: no scan reached WithOnScan before Finish", w)
		}
		if got := a.Finish(); got != nil {
			t.Fatalf("workers=%d: Finish returned %d scans despite WithOnScan", w, len(got))
		}
		got := keys(streamed)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: streamed %d scans, Finish path %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: scan %d differs:\n streamed %s\n finish   %s", w, i, got[i], want[i])
			}
		}
	}
}

// TestFacadeAnalyzerStats: Stats must reflect the ingress filter and the
// detector lifecycle without any explicit metrics wiring.
func TestFacadeAnalyzerStats(t *testing.T) {
	stream := makeProbeStream(20000, 2048)
	a := NewAnalyzer(65536, WithWorkers(2))
	var notSYN uint64
	for i := range stream {
		if !stream[i].IsSYN() {
			notSYN++
		}
		a.Ingest(&stream[i])
	}
	scans := a.Finish()
	st := a.Stats()
	if got := st.Counter("analyzer.packets.accepted"); got != uint64(len(stream))-notSYN {
		t.Fatalf("accepted = %d, want %d", got, uint64(len(stream))-notSYN)
	}
	if got := st.Counter("analyzer.drop.not_syn"); got != notSYN {
		t.Fatalf("not_syn = %d, want %d", got, notSYN)
	}
	if got := st.Counter("detector.flows.closed"); got != uint64(len(scans)) {
		t.Fatalf("flows closed = %d, want %d", got, len(scans))
	}
	if _, ok := st.Gauges["detector.shard.queue_depth"]; !ok {
		t.Fatal("sharded analyzer missing queue-depth gauge")
	}

	// An externally supplied registry is used as-is.
	reg := NewMetrics()
	b := NewAnalyzer(65536, WithMetrics(reg))
	b.Ingest(&stream[0])
	if reg.Snapshot().Counter("analyzer.packets.accepted")+reg.Snapshot().Counter("analyzer.drop.not_syn") != 1 {
		t.Fatal("WithMetrics registry not wired")
	}
}

// TestFacadeConfigMetrics: Simulate with Config.Metrics must fill
// YearData.PipelineStats with telescope, detector and stage-timing metrics
// that agree with the YearData aggregates.
func TestFacadeConfigMetrics(t *testing.T) {
	reg := NewMetrics()
	yd, err := Simulate(Config{
		Year: 2016, Seed: 3, Scale: 0.0003, TelescopeSize: 2048,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := yd.PipelineStats
	if got := st.Counter("telescope.packets.accepted"); got != yd.AcceptedPackets {
		t.Fatalf("accepted = %d, want %d", got, yd.AcceptedPackets)
	}
	if got := st.Counter("detector.flows.closed"); got != uint64(len(yd.Scans)) {
		t.Fatalf("flows closed = %d, want %d", got, len(yd.Scans))
	}
	for _, name := range []string{"collect.run_ns", "collect.flush_ns", "collect.finalize_ns"} {
		if st.Histograms[name].Count != 1 {
			t.Fatalf("stage histogram %s count = %d, want 1", name, st.Histograms[name].Count)
		}
	}
	if st.Counter("enrich.cache.hits")+st.Counter("enrich.cache.misses") != uint64(len(yd.Scans)) {
		t.Fatalf("cache hits+misses = %d, want %d lookups",
			st.Counter("enrich.cache.hits")+st.Counter("enrich.cache.misses"), len(yd.Scans))
	}
}

// TestFacadeNamesEveryEvaluationType walks the Evaluation's fields down to
// their named element types and fails when one has no alias here: a result a
// library user reads from Evaluate but cannot name cannot be declared or
// passed on without reaching into internal packages.
func TestFacadeNamesEveryEvaluationType(t *testing.T) {
	named := map[reflect.Type]bool{}
	for _, v := range []any{
		Table1Row{}, Table2Row{}, DisclosureResult{}, VolatilityResult{},
		PortsPerSourceResult{}, PortToolMix{}, PortTypeMix{}, RecurrenceResult{},
		SpeedCoverageRow{}, OrgCoverageRow{}, OrgCoverageDelta{},
		ZMapDailyResult{}, NormalizedOrigin{}, PortCoverageResult{},
		VerticalScanResult{}, OriginResult{}, ToolSpeedResult{},
		CoverageModesResult{}, BlocklistResult{}, CollabStats{}, BiasResult{},
		BlockableResult{}, VantageResult{}, PearsonResult{},
	} {
		named[reflect.TypeOf(v)] = true
	}
	held := map[reflect.Type]bool{}
	ev := reflect.TypeOf(Evaluation{})
	for i := 0; i < ev.NumField(); i++ {
		typ := ev.Field(i).Type
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice || typ.Kind() == reflect.Map {
			typ = typ.Elem()
		}
		if typ.PkgPath() == "" { // predeclared: the header's numbers, Skipped's strings
			continue
		}
		held[typ] = true
		if !named[typ] {
			t.Errorf("Evaluation.%s holds %v, which the facade does not name (alias it in synscan.go and add it to this list)",
				ev.Field(i).Name, typ)
		}
	}
	for typ := range named {
		if !held[typ] {
			t.Errorf("this list names %v, which no Evaluation field holds", typ)
		}
	}
}

// TestFacadeEvaluate: the facade's door to an experiment runs the named rows
// on the years it is given, fills exactly their fields with what the
// analyses compute, reports the parameters the years were simulated at, and
// refuses a key no row answers to.
func TestFacadeEvaluate(t *testing.T) {
	yd, err := Simulate(Config{Year: 2020, Seed: 2, Scale: 0.0005, TelescopeSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Years: []*YearData{yd}}
	ev, err := Evaluate(in, "fig2", "table2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ev.Figure2, analysis.Figure2(yd)) {
		t.Error("Figure2 differs from analysis.Figure2 of the same year")
	}
	if !reflect.DeepEqual(ev.Table2, analysis.Table2([]*YearData{yd})) {
		t.Error("Table2 differs from analysis.Table2 of the same year")
	}
	if ev.Seed != 2 || ev.Scale != 0.0005 || ev.TelescopeSize != 2048 {
		t.Errorf("the evaluation reports seed %d, scale %v, telescope %d; the year was simulated at 2, 0.0005, 2048",
			ev.Seed, ev.Scale, ev.TelescopeSize)
	}
	v := reflect.ValueOf(ev).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		want := name == "Figure2" || name == "Table2" || name == "Seed" || name == "Scale" || name == "TelescopeSize"
		if filled := !v.Field(i).IsZero(); filled != want {
			t.Errorf("Evaluation.%s filled = %v, want only Figure2, Table2 and the parameters", name, filled)
		}
	}
	if _, err := Evaluate(in, "fig2", "bogus"); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("unknown key: err = %v, want one naming the key", err)
	}
}
