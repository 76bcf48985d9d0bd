package synscan

import (
	"testing"

	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
)

func TestSimulateYear(t *testing.T) {
	yd, err := Simulate(Config{Year: 2020, Seed: 1, Scale: 0.0004, TelescopeSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if yd.Year != 2020 || yd.AcceptedPackets == 0 {
		t.Fatalf("year data: %+v", yd.Year)
	}
	if len(yd.QualifiedScans()) == 0 {
		t.Fatal("no qualified campaigns")
	}
}

func TestSimulateUnknownYear(t *testing.T) {
	if _, err := Simulate(Config{Year: 1995}); err == nil {
		t.Fatal("unknown year must error")
	}
}

func TestSimulateDecadeAndTables(t *testing.T) {
	years, err := SimulateDecade(3, 0.0003, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(years) != len(Years()) {
		t.Fatalf("%d years", len(years))
	}
	t1 := Table1(years, 5)
	if len(t1) != 10 || t1[0].Year != 2015 || t1[9].Year != 2024 {
		t.Fatalf("Table1 rows wrong: %d", len(t1))
	}
	if t1[9].PacketsPerDay <= t1[0].PacketsPerDay {
		t.Fatal("traffic must grow across the decade")
	}
	t2 := Table2(years)
	if len(t2) != 5 {
		t.Fatalf("Table2 rows: %d", len(t2))
	}
}

func TestAnalyzerOnSyntheticStream(t *testing.T) {
	a := NewAnalyzer(PaperTelescopeSize)
	r := rng.New(9)
	pr := tools.NewMasscan(0x0A0B0C0D, r)
	// A fast masscan sweep: 300 telescope hits in 60 seconds.
	for i := 0; i < 300; i++ {
		p := pr.Probe(0xC0000000|uint32(i), 443)
		p.Time = int64(i) * 200e6
		a.Ingest(&p)
	}
	// Backscatter must be ignored.
	synack := Probe{Time: 1, Src: 1, Dst: 2, Flags: 0x12}
	a.Ingest(&synack)
	scans := a.Finish()
	if len(scans) != 1 {
		t.Fatalf("%d scans", len(scans))
	}
	s := scans[0]
	if !s.Qualified || s.Tool != ToolMasscan || s.DistinctDsts != 300 {
		t.Fatalf("scan: %+v", s)
	}
}

// TestAnalyzerScalesThresholds: below the paper's telescope size the analyzer
// rescales the campaign thresholds as cmd/synalyze does, so a sweep that hits
// 20 of 2,048 monitored addresses — past the rescaled floor of 6, far below
// the paper's 100 — is a campaign.
func TestAnalyzerScalesThresholds(t *testing.T) {
	a := NewAnalyzer(2048)
	pr := tools.NewMasscan(0x0A0B0C0D, rng.New(9))
	for i := 0; i < 20; i++ {
		p := pr.Probe(0xC0000000|uint32(i), 443)
		p.Time = int64(i) * 200e6
		a.Ingest(&p)
	}
	if scans := a.Finish(); len(scans) != 1 || !scans[0].Qualified {
		t.Fatalf("scans: %+v", scans)
	}
}

func TestNewPaperTelescope(t *testing.T) {
	tel, err := NewPaperTelescope(1)
	if err != nil {
		t.Fatal(err)
	}
	if tel.Size() != PaperTelescopeSize {
		t.Fatalf("size = %d", tel.Size())
	}
}

func TestConstantsRoundTrip(t *testing.T) {
	if ToolZMap.String() != "ZMap" || ToolMirai.String() != "Mirai-like" {
		t.Fatal("tool aliases broken")
	}
	if TypeInstitutional.String() != "Institutional" {
		t.Fatal("type aliases broken")
	}
}

func TestProbeAliasCodec(t *testing.T) {
	p := Probe{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Flags: 0x02}
	frame := p.MarshalFrame()
	var q Probe
	if err := q.UnmarshalFrame(frame); err != nil {
		t.Fatal(err)
	}
	if q.Dst != 2 || !q.IsSYN() {
		t.Fatalf("codec alias: %+v", q)
	}
}
