package synscan

// facade_test drives every public wrapper end to end on one small simulated
// year, so the whole API surface is exercised from outside the internal
// packages.

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/packet"
)

var (
	facadeOnce sync.Once
	facade2022 *YearData
	facade2015 *YearData
)

func facadeData(t testing.TB) (*YearData, *YearData) {
	t.Helper()
	facadeOnce.Do(func() {
		var err error
		facade2022, err = Simulate(Config{Year: 2022, Seed: 2, Scale: 0.0005, TelescopeSize: 2048})
		if err != nil {
			panic(err)
		}
		facade2015, err = Simulate(Config{Year: 2015, Seed: 2, Scale: 0.0005, TelescopeSize: 2048})
		if err != nil {
			panic(err)
		}
	})
	return facade2022, facade2015
}

// TestFacadeAnalyzerWorkers: the sharded analyzer must detect the exact same
// campaign multiset as the sequential one, through the public facade.
func TestFacadeAnalyzerWorkers(t *testing.T) {
	stream := makeAblationStream(40000, 2048)
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
	stream := makeAblationStream(40000, 2048)
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
	stream := makeAblationStream(20000, 2048)
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

func TestFacadeVolatility(t *testing.T) {
	yd, _ := facadeData(t)
	res := Volatility(yd)
	if len(res.PacketRatios) == 0 || res.PacketsTwofold <= 0 {
		t.Fatalf("volatility: %+v", res)
	}
}

func TestFacadePortsPerSource(t *testing.T) {
	yd, y15 := facadeData(t)
	f22, f15 := PortsPerSource(yd), PortsPerSource(y15)
	if f22.SinglePortShare >= f15.SinglePortShare {
		t.Fatalf("single-port share must decline: %v -> %v",
			f15.SinglePortShare, f22.SinglePortShare)
	}
}

func TestFacadeToolAndTypeMix(t *testing.T) {
	yd, _ := facadeData(t)
	if rows := ToolMixByPort(yd, 10); len(rows) != 10 {
		t.Fatalf("ToolMixByPort: %d rows", len(rows))
	}
	if rows := TypeMixByPort(&yd.Campaigns, 15); len(rows) == 0 {
		t.Fatal("TypeMixByPort empty")
	}
}

func TestFacadeRecurrenceAndSpeed(t *testing.T) {
	yd, _ := facadeData(t)
	rec := Recurrence([]*Campaigns{&yd.Campaigns})
	if len(rec.ScansPerSource[TypeInstitutional]) == 0 {
		t.Fatal("no institutional recurrence")
	}
	rows := SpeedAndCoverage(&yd.Campaigns)
	if len(rows) == 0 {
		t.Fatal("no speed rows")
	}
}

func TestFacadeSectionAnalyses(t *testing.T) {
	yd, _ := facadeData(t)
	if r := PortCoverage(yd, 2); r.PrivilegedCoverage <= 0 {
		t.Fatalf("PortCoverage: %+v", r)
	}
	if r := VerticalScans(&yd.Campaigns); r.LargestPortCount <= 0 {
		t.Fatalf("VerticalScans: %+v", r)
	}
	if r := ToolSpeeds(&yd.Campaigns); len(r.MedianPPS) == 0 {
		t.Fatalf("ToolSpeeds: %+v", r)
	}
	if r := CoverageModes(&yd.Campaigns, ToolMasscan); r.Tool != ToolMasscan {
		t.Fatalf("CoverageModes: %+v", r)
	}
	if pr, err := SpeedPortsCorrelation(&yd.Campaigns); err != nil || pr.N == 0 {
		t.Fatalf("SpeedPortsCorrelation: %+v %v", pr, err)
	}
	if r := OriginStructure(yd); len(r.TopCountries) == 0 {
		t.Fatalf("OriginStructure: %+v", r)
	}
	if r := InstitutionalBias(yd, 5); r.InstPacketShare <= 0 {
		t.Fatalf("InstitutionalBias: %+v", r)
	}
	if r := BlockableShare(yd); r.Share <= 0 || r.Share > 1 {
		t.Fatalf("BlockableShare: %+v", r)
	}
}

func TestFacadeCollaboration(t *testing.T) {
	yd, _ := facadeData(t)
	groups := DetectCollaboration(yd.QualifiedScans(), CollabConfig{})
	st := SummarizeCollaboration(groups)
	if st.LogicalScans == 0 || st.RawScans < st.LogicalScans {
		t.Fatalf("collab stats: %+v", st)
	}
}

func TestFacadeBlocklistDecay(t *testing.T) {
	res, err := BlocklistDecay(Config{Year: 2022, Seed: 2, Scale: 0.0003, TelescopeSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRate[0] != 1 || res.HitRate[1] >= 1 {
		t.Fatalf("hit rates: %v", res.HitRate)
	}
}

func TestFacadeInstitutionalCoverage(t *testing.T) {
	rows, err := InstitutionalCoverage(Config{Year: 2024, Seed: 2, Scale: 0.001, TelescopeSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 10 {
		t.Fatalf("only %d orgs", len(rows))
	}
	if rows[0].PortsCovered < rows[len(rows)-1].PortsCovered {
		t.Fatal("rows must be sorted by coverage")
	}
}

func TestFacadeCoverageDelta(t *testing.T) {
	rows, err := InstitutionalCoverageDelta(2, 0.001, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 10 {
		t.Fatalf("only %d orgs", len(rows))
	}
}

func TestFacadeVantage(t *testing.T) {
	res, err := CompareVantagePoints(2020, 2, 0.0003, 2048, 11, 22)
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketRatio <= 0 || res.TopPortOverlap < 0 {
		t.Fatalf("vantage: %+v", res)
	}
}

func TestFacadeDisclosure(t *testing.T) {
	res, err := DisclosureResponse(
		Config{Year: 2019, Seed: 2, Scale: 0.0005, TelescopeSize: 2048},
		Disclosure{Day: 10, Port: 7777, PeakPerDay: 50000, DecayDays: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakFactor < 2 {
		t.Fatalf("no surge: %+v", res.PeakFactor)
	}
}
