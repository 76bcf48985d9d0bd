package analysis

import (
	"reflect"
	"testing"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/tools"
	"github.com/synscan/synscan/internal/workload"
)

// storeView writes the campaigns, in order, into a fresh segment store under
// cfg and returns a view of the whole store; the view and its catalog close
// at cleanup.
func storeView(t *testing.T, cfg archive.SegmentConfig, camps ...*Campaigns) *archive.CatalogView {
	t.Helper()
	dir := t.TempDir()
	sw, err := archive.OpenSegmentDir(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range camps {
		if err := ArchiveYear(sw, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	cat, err := archive.OpenCatalog(dir, archive.CatalogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	v := cat.View()
	t.Cleanup(v.Release)
	return v
}

// TestArchiveEquivalence: the scan-level results computed from a store
// are identical to the in-memory pipeline's on the same seeded workload —
// same Scans (deep-equal, same order), same origins, and every analysis that
// takes campaigns gives the same result on the loaded year as on the
// simulated one.
func TestArchiveEquivalence(t *testing.T) {
	t.Parallel()
	s, err := workload.NewScenario(workload.Config{
		Year: 2020, Seed: 7, Scale: 0.0005, TelescopeSize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := &Collect(s, CollectConfig{}).Campaigns
	v := storeView(t, archive.SegmentConfig{
		TelescopeSize: 1024, Origins: true, BlockBytes: 16 << 10,
	}, want)
	got, err := CollectArchive(v, 2020)
	if err != nil {
		t.Fatal(err)
	}

	if got.Year != want.Year || got.Days != want.Days ||
		got.TelescopeSize != want.TelescopeSize || got.Start != want.Start {
		t.Fatalf("metadata mismatch: got %d/%d/%d/%d want %d/%d/%d/%d",
			got.Year, got.Days, got.TelescopeSize, got.Start,
			want.Year, want.Days, want.TelescopeSize, want.Start)
	}
	if len(got.Scans) == 0 {
		t.Fatal("store produced no scans")
	}
	if !reflect.DeepEqual(got.Scans, want.Scans) {
		t.Fatalf("Scans differ: %d vs %d campaigns", len(got.Scans), len(want.Scans))
	}
	if !reflect.DeepEqual(got.ScanOrigins, want.ScanOrigins) {
		t.Fatal("ScanOrigins differ")
	}
	for name, table := range map[string]func(*Campaigns) any{
		"QualifiedScans":        func(c *Campaigns) any { return c.QualifiedScans() },
		"ScansPerPort":          func(c *Campaigns) any { return c.ScansPerPort() },
		"ToolScanShares":        func(c *Campaigns) any { return c.ToolScanShares() },
		"TwoPhaseTable":         func(c *Campaigns) any { return c.TwoPhaseTable() },
		"Figure5":               func(c *Campaigns) any { return Figure5(c, 15) },
		"Figure6":               func(c *Campaigns) any { return Figure6([]*Campaigns{c}) },
		"Figure7":               func(c *Campaigns) any { return Figure7(c) },
		"Sec52":                 func(c *Campaigns) any { return Sec52(c) },
		"Sec63":                 func(c *Campaigns) any { return Sec63(c) },
		"Sec64":                 func(c *Campaigns) any { return Sec64(c, tools.ToolMasscan) },
		"ZMapDaily":             func(c *Campaigns) any { return ZMapDaily(c) },
		"SpeedPortsCorrelation": func(c *Campaigns) any { r, _ := SpeedPortsCorrelation(c); return r },
	} {
		g, w := table(got), table(want)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s differs between the archive-loaded and the simulated year", name)
		}
		if v := reflect.ValueOf(w); v.Kind() == reflect.Slice && v.Len() == 0 {
			t.Errorf("%s is empty: the comparison shows nothing", name)
		}
	}
}

// TestArchiveKeepsMergeOrder: campaigns in the sharded detector's merge
// order (End, Start, Src), as `syningest -workers N` (N > 1) writes them,
// come back from the store in that order, origins alongside.
func TestArchiveKeepsMergeOrder(t *testing.T) {
	t.Parallel()
	s, err := workload.NewScenario(workload.Config{
		Year: 2019, Seed: 11, Scale: 0.0003, TelescopeSize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := mergeOrdered(&Collect(s, CollectConfig{}).Campaigns)
	v := storeView(t, archive.SegmentConfig{TelescopeSize: 1024, Origins: true}, want)
	got, err := CollectArchive(v, 2019)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Scans, want.Scans) {
		t.Fatal("Scans in merge order differ after the store round trip")
	}
	if !reflect.DeepEqual(got.ScanOrigins, want.ScanOrigins) {
		t.Fatal("ScanOrigins in merge order differ after the store round trip")
	}
}

// TestCollectArchiveYears: a two-year store splits back into its years.
func TestCollectArchiveYears(t *testing.T) {
	t.Parallel()
	wantByYear := map[int]int{}
	var camps []*Campaigns
	for _, year := range []int{2016, 2022} {
		s, err := workload.NewScenario(workload.Config{
			Year: year, Seed: 3, Scale: 0.0003, TelescopeSize: 1024,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := &Collect(s, CollectConfig{}).Campaigns
		wantByYear[year] = len(c.Scans)
		camps = append(camps, c)
	}
	v := storeView(t, archive.SegmentConfig{TelescopeSize: 1024, Origins: true}, camps...)
	years, err := CollectArchiveYears(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(years) != 2 {
		t.Fatalf("got %d years, want 2", len(years))
	}
	for _, yd := range years {
		if wantByYear[yd.Year] != len(yd.Scans) {
			t.Fatalf("year %d: %d scans, want %d", yd.Year, len(yd.Scans), wantByYear[yd.Year])
		}
	}
}
