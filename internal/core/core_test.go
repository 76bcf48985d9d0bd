package core

import (
	"testing"
	"time"

	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
)

const testTelescopeSize = 65536

func collector() (*[]*Scan, func(*Scan)) {
	var scans []*Scan
	return &scans, func(s *Scan) { scans = append(scans, s) }
}

// feedCampaign ingests n probes from one tool-driven source, spread evenly
// over the given duration, hitting n distinct destinations.
func feedCampaign(d Ingester, tool tools.Tool, src uint32, n int, start, dur int64, seed uint64) {
	r := rng.New(seed)
	pr := tools.NewProber(tool, src, r)
	for i := 0; i < n; i++ {
		p := pr.Probe(0xCB0A0000|uint32(i), 80)
		p.Time = start + dur*int64(i)/int64(n)
		d.Ingest(&p)
	}
}

func TestQualifyingCampaign(t *testing.T) {
	scans, emit := collector()
	d := NewDetector(Config{TelescopeSize: testTelescopeSize}, emit)
	// 200 distinct destinations in 10 seconds.
	feedCampaign(d, tools.ToolMasscan, 0x0A000001, 200, 0, 10e9, 1)
	d.FlushAll()
	if len(*scans) != 1 {
		t.Fatalf("%d scans, want 1", len(*scans))
	}
	s := (*scans)[0]
	if !s.Qualified {
		t.Fatalf("scan not qualified: %+v", s)
	}
	if s.Tool != tools.ToolMasscan {
		t.Fatalf("tool = %v", s.Tool)
	}
	if s.DistinctDsts != 200 || s.Packets != 200 {
		t.Fatalf("dsts=%d packets=%d", s.DistinctDsts, s.Packets)
	}
	if len(s.Ports) != 1 || s.Ports[0] != 80 {
		t.Fatalf("ports = %v", s.Ports)
	}
	// Observed ~20 pps over a 1/65536 telescope -> ~1.3M pps extrapolated.
	if s.RatePPS < 1e6 || s.RatePPS > 2e6 {
		t.Fatalf("RatePPS = %v", s.RatePPS)
	}
	if s.Coverage <= 0 || s.Coverage > 1 {
		t.Fatalf("Coverage = %v", s.Coverage)
	}
	if s.SpeedMbps() <= 0 {
		t.Fatal("SpeedMbps must be positive")
	}
}

func TestTooFewDestinations(t *testing.T) {
	scans, emit := collector()
	d := NewDetector(Config{TelescopeSize: testTelescopeSize}, emit)
	feedCampaign(d, tools.ToolZMap, 0x0A000002, 99, 0, 1e9, 2)
	d.FlushAll()
	if len(*scans) != 1 {
		t.Fatalf("%d scans", len(*scans))
	}
	if (*scans)[0].Qualified {
		t.Fatal("99 destinations must not qualify")
	}
	// Tool is classified regardless.
	if (*scans)[0].Tool != tools.ToolZMap {
		t.Fatalf("tool = %v", (*scans)[0].Tool)
	}
}

func TestTooSlowRate(t *testing.T) {
	scans, emit := collector()
	d := NewDetector(Config{TelescopeSize: testTelescopeSize}, emit)
	// 150 probes over 40 minutes: observed 0.0625 pps -> ~4096 pps
	// extrapolated, above default. Stretch further: use a tiny telescope.
	d2 := NewDetector(Config{TelescopeSize: testTelescopeSize, MinRatePPS: 1e7}, emit)
	feedCampaign(d2, tools.ToolZMap, 0x0A000003, 150, 0, int64(40*time.Minute), 3)
	d2.FlushAll()
	_ = d
	if len(*scans) != 1 || (*scans)[0].Qualified {
		t.Fatal("slow scan must not qualify")
	}
}

func TestExpirySplitsScans(t *testing.T) {
	scans, emit := collector()
	d := NewDetector(Config{TelescopeSize: testTelescopeSize}, emit)
	src := uint32(0x0A000004)
	feedCampaign(d, tools.ToolMirai, src, 150, 0, 5e9, 4)
	// Second burst two hours later.
	feedCampaign(d, tools.ToolMirai, src, 150, int64(2*time.Hour), 5e9, 5)
	d.FlushAll()
	if len(*scans) != 2 {
		t.Fatalf("%d scans, want 2 (gap > expiry must split)", len(*scans))
	}
	for _, s := range *scans {
		if s.Src != src || !s.Qualified || s.Tool != tools.ToolMirai {
			t.Fatalf("split scan wrong: %+v", s)
		}
	}
}

func TestNoSplitWithinExpiry(t *testing.T) {
	scans, emit := collector()
	d := NewDetector(Config{TelescopeSize: testTelescopeSize}, emit)
	src := uint32(0x0A000005)
	feedCampaign(d, tools.ToolZMap, src, 100, 0, 5e9, 6)
	// 30-minute gap: same campaign.
	feedCampaign(d, tools.ToolZMap, src, 100, int64(30*time.Minute), 5e9, 7)
	d.FlushAll()
	if len(*scans) != 1 {
		t.Fatalf("%d scans, want 1", len(*scans))
	}
	if (*scans)[0].Packets != 200 {
		t.Fatalf("packets = %d", (*scans)[0].Packets)
	}
}

func TestMultipleSourcesIndependent(t *testing.T) {
	scans, emit := collector()
	d := NewDetector(Config{TelescopeSize: testTelescopeSize}, emit)
	feedCampaign(d, tools.ToolZMap, 1, 120, 0, 5e9, 8)
	feedCampaign(d, tools.ToolMirai, 2, 120, 0, 5e9, 9)
	feedCampaign(d, tools.ToolNMap, 3, 120, 0, 5e9, 10)
	if d.ActiveFlows() != 3 {
		t.Fatalf("ActiveFlows = %d", d.ActiveFlows())
	}
	d.FlushAll()
	if d.ActiveFlows() != 0 {
		t.Fatal("flush must drain all flows")
	}
	got := map[uint32]tools.Tool{}
	for _, s := range *scans {
		got[s.Src] = s.Tool
	}
	want := map[uint32]tools.Tool{1: tools.ToolZMap, 2: tools.ToolMirai, 3: tools.ToolNMap}
	for src, tool := range want {
		if got[src] != tool {
			t.Fatalf("src %d classified %v, want %v", src, got[src], tool)
		}
	}
}

func TestLazyExpiryViaLRU(t *testing.T) {
	scans, emit := collector()
	d := NewDetector(Config{TelescopeSize: testTelescopeSize}, emit)
	// Open three flows at t=0.
	for src := uint32(1); src <= 3; src++ {
		p := packet.Probe{Time: 0, Src: src, Dst: 100, DstPort: 80, Flags: packet.FlagSYN}
		d.Ingest(&p)
	}
	// Keep src 2 alive at t=50min.
	p := packet.Probe{Time: int64(50 * time.Minute), Src: 2, Dst: 101, DstPort: 80, Flags: packet.FlagSYN}
	d.Ingest(&p)
	// A probe at t=90min expires src 1 and 3 (idle since 0) but not 2.
	p = packet.Probe{Time: int64(90 * time.Minute), Src: 4, Dst: 102, DstPort: 80, Flags: packet.FlagSYN}
	d.Ingest(&p)
	if d.ActiveFlows() != 2 { // src 2 and 4
		t.Fatalf("ActiveFlows = %d, want 2", d.ActiveFlows())
	}
	if len(*scans) != 2 {
		t.Fatalf("emitted %d, want 2", len(*scans))
	}
	d.FlushAll()
	opened, closed, qualified := d.Counts()
	if opened != 4 || closed != 4 {
		t.Fatalf("opened=%d closed=%d", opened, closed)
	}
	if qualified != 0 {
		t.Fatalf("qualified=%d, single-probe flows cannot qualify", qualified)
	}
}

func TestPortsSortedDistinct(t *testing.T) {
	scans, emit := collector()
	d := NewDetector(Config{TelescopeSize: testTelescopeSize}, emit)
	r := rng.New(11)
	pr := tools.NewMasscan(7, r)
	ports := []uint16{443, 80, 8080, 80, 443, 22}
	for i, port := range ports {
		p := pr.Probe(uint32(1000+i), port)
		p.Time = int64(i) * 1e8
		d.Ingest(&p)
	}
	d.FlushAll()
	got := (*scans)[0].Ports
	want := []uint16{22, 80, 443, 8080}
	if len(got) != len(want) {
		t.Fatalf("ports = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ports = %v, want %v", got, want)
		}
	}
}

func TestSingleBurstRateFloor(t *testing.T) {
	// All probes at the same instant: duration floor of 1s avoids Inf.
	scans, emit := collector()
	d := NewDetector(Config{TelescopeSize: testTelescopeSize}, emit)
	r := rng.New(12)
	pr := tools.NewZMap(9, r)
	for i := 0; i < 150; i++ {
		p := pr.Probe(uint32(i), 80)
		p.Time = 1000
		d.Ingest(&p)
	}
	d.FlushAll()
	s := (*scans)[0]
	if s.RatePPS <= 0 || s.RatePPS > 150*float64(1<<32)/testTelescopeSize {
		t.Fatalf("RatePPS = %v", s.RatePPS)
	}
	if s.Duration() != 0 {
		t.Fatalf("Duration = %v", s.Duration())
	}
}

// TestReorderedProbeKeepsEndMonotonic: a slightly reordered probe must not
// move a flow's End backwards (pre-fix, Ingest assigned f.end = p.Time
// unconditionally, corrupting Duration/RatePPS).
func TestReorderedProbeKeepsEndMonotonic(t *testing.T) {
	scans, emit := collector()
	d := NewDetector(Config{TelescopeSize: testTelescopeSize}, emit)
	times := []int64{10e9, 12e9, 11e9} // third probe arrives out of order
	for i, tm := range times {
		p := packet.Probe{Time: tm, Src: 1, Dst: uint32(i + 1), DstPort: 80, Flags: packet.FlagSYN}
		d.Ingest(&p)
	}
	d.FlushAll()
	if len(*scans) != 1 {
		t.Fatalf("%d scans, want 1", len(*scans))
	}
	s := (*scans)[0]
	if s.Start != 10e9 || s.End != 12e9 {
		t.Fatalf("Start=%d End=%d, want 10e9/12e9", s.Start, s.End)
	}
	if s.Duration() != 2 {
		t.Fatalf("Duration = %v, want 2s", s.Duration())
	}
}

// TestReorderedProbeDoesNotBreakExpiry: pre-fix, a stale reordered probe
// dragged a live flow's end backwards, so the next expiry pass closed a
// flow that was in fact recently active.
func TestReorderedProbeDoesNotBreakExpiry(t *testing.T) {
	scans, emit := collector()
	d := NewDetector(Config{TelescopeSize: testTelescopeSize}, emit)
	ingest := func(tm int64, src uint32, dst uint32) {
		p := packet.Probe{Time: tm, Src: src, Dst: dst, DstPort: 80, Flags: packet.FlagSYN}
		d.Ingest(&p)
	}
	ingest(0, 0xA, 1)                     // flow A opens at t=0
	ingest(int64(50*time.Minute), 0xB, 2) // flow B active at t=50m
	ingest(int64(1*time.Minute), 0xB, 3)  // stale duplicate for B (reordered)
	ingest(int64(65*time.Minute), 0xC, 4) // cutoff t=5m: expires A only
	if d.ActiveFlows() != 2 {
		t.Fatalf("ActiveFlows = %d, want 2 (B recently active must survive)", d.ActiveFlows())
	}
	if len(*scans) != 1 || (*scans)[0].Src != 0xA {
		t.Fatalf("scans = %+v, want only flow A closed", *scans)
	}
}

// TestBackDatedOpensSkipTheWalk: a new flow whose first probe is older than
// the expiry cutoff ends before every open flow, so lruAppend puts it at the
// head in one step instead of walking the whole list there. With 100 000
// flows open, 10 000 fresh sources with back-dated probes must open (and
// close, at the next probe) at about the cost of 10 000 in-order ones, where
// a walk would step past every open flow for each; and the emitted scans
// still agree with the probe stream.
func TestBackDatedOpensSkipTheWalk(t *testing.T) {
	const open, late = 100000, 10000
	cfg := Config{TelescopeSize: testTelescopeSize}
	scans, emit := collector()
	d := NewDetector(cfg, emit)
	stream := make([]packet.Probe, 0, open+6*late)
	now := 2 * DefaultExpiry
	src := uint32(0)
	// feed ingests count new sources, the i-th at time at(i), and returns how
	// long they took.
	feed := func(count int, at func(i int) int64) time.Duration {
		first := len(stream)
		for i := 0; i < count; i++ {
			src++
			stream = append(stream, packet.Probe{Time: at(i), Src: src, Dst: 0x0A000001, DstPort: 80, Flags: packet.FlagSYN})
		}
		start := time.Now()
		for i := first; i < len(stream); i++ {
			d.Ingest(&stream[i])
		}
		return time.Since(start)
	}
	inOrder := func(i int) int64 { now += int64(time.Microsecond); return now }
	backDated := func(i int) int64 { return int64(i) } // before now − Expiry
	feed(open, inOrder)
	fresh, early := time.Duration(1<<62), time.Duration(1<<62)
	for rep := 0; rep < 3; rep++ { // the fastest of three, so a collection in one does not decide
		fresh = min(fresh, feed(late, inOrder))
		early = min(early, feed(late, backDated))
	}
	t.Logf("%d opens with %d flows open: in order %v, back-dated %v", late, open, fresh, early)
	if early > 25*fresh {
		t.Errorf("back-dated opens took %v, %.0f× the in-order ones: they walk the LRU list", early, float64(early)/float64(fresh))
	}
	d.FlushAll()
	if len(*scans) != open+3*late+3*late {
		t.Fatalf("%d scans, want one per source", len(*scans))
	}
	checkAgainstProbeStream(t, cfg, stream, *scans)
}

// TestAdvanceTime: the clock can move without a probe, expiring idle flows.
func TestAdvanceTime(t *testing.T) {
	scans, emit := collector()
	d := NewDetector(Config{TelescopeSize: testTelescopeSize}, emit).(*Detector)
	p := packet.Probe{Time: 0, Src: 1, Dst: 1, DstPort: 80, Flags: packet.FlagSYN}
	d.Ingest(&p)
	d.AdvanceTime(int64(30 * time.Minute))
	if len(*scans) != 0 {
		t.Fatal("flow expired before the idle window elapsed")
	}
	d.AdvanceTime(int64(2 * time.Hour))
	if len(*scans) != 1 {
		t.Fatalf("%d scans after clock passed expiry, want 1", len(*scans))
	}
	// Clock never moves backwards.
	d.AdvanceTime(0)
	if d.now != int64(2*time.Hour) {
		t.Fatalf("now = %d moved backwards", d.now)
	}
}

func TestConfigDefaults(t *testing.T) {
	d := NewDetector(Config{TelescopeSize: 10}, nil).(*Detector)
	if d.cfg.MinDistinctDsts != DefaultMinDistinctDsts ||
		d.cfg.MinRatePPS != DefaultMinRatePPS ||
		d.cfg.Expiry != DefaultExpiry {
		t.Fatalf("defaults not applied: %+v", d.cfg)
	}
	// nil emit must not crash.
	p := packet.Probe{Time: 1, Src: 1, Dst: 2, DstPort: 80, Flags: packet.FlagSYN}
	d.Ingest(&p)
	d.FlushAll()
}

func TestNewDetectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero TelescopeSize must panic")
		}
	}()
	NewDetector(Config{}, nil)
}
