package synscan

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFacadeArchiveSkipCorrupt: the degraded-mode surface works end to end
// through the public wrappers — a store with a corrupted segment fails a
// default catalog's query but streams its intact blocks under
// CatalogConfig.SkipCorrupt, counting the damage.
func TestFacadeArchiveSkipCorrupt(t *testing.T) {
	yd := facadeData(t)
	dir := t.TempDir()
	w, err := OpenSegmentDir(dir, SegmentConfig{
		TelescopeSize: 2048, Origins: true, BlockBytes: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ArchiveYear(w, &yd.Campaigns); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := w.SealedSegments()
	if len(segs) != 1 {
		t.Fatalf("%d segments, want 1", len(segs))
	}
	path := filepath.Join(dir, segs[0].Name)

	// readAll opens the store under cfg and runs an all-scans read of its one
	// segment, returning the scan count, the corrupt-block count and the
	// segment's scan total.
	readAll := func(cfg CatalogConfig) (n int, corrupt, total uint64, err error) {
		cat, err := OpenCatalog(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cat.Close()
		v := cat.View()
		defer v.Release()
		rd := v.Reader(0)
		err = rd.Query(context.Background(), AllScans, func(*Scan, *Origin) { n++ })
		return n, rd.CorruptBlocks(), rd.NumScans(), err
	}

	probe, err := OpenCatalog(dir, CatalogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v := probe.View()
	zones := v.Reader(0).Blocks()
	v.Release()
	probe.Close()
	if len(zones) < 2 {
		t.Fatalf("segment has %d blocks; need at least 2 to lose one and keep reading", len(zones))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first block's compressed payload (past its
	// 4-byte checksum).
	data[int(zones[0].Offset)+4+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, _, err := readAll(CatalogConfig{}); err == nil {
		t.Fatal("default catalog must fail on a corrupt block")
	}
	n, corrupt, total, err := readAll(CatalogConfig{SkipCorrupt: true})
	if err != nil {
		t.Fatalf("skip-corrupt catalog errored: %v", err)
	}
	if corrupt != 1 {
		t.Fatalf("CorruptBlocks() = %d, want 1", corrupt)
	}
	if n == 0 || uint64(n) >= total {
		t.Fatalf("recovered %d of %d scans; want the intact blocks only", n, total)
	}
}

// TestFacadeStrictCatalog: over a store with a truncated segment, RunQuery
// through a zero CatalogConfig's view fails naming the segment, and through a
// SkipCorrupt one answers from the intact segment, the view degraded.
func TestFacadeStrictCatalog(t *testing.T) {
	yd := facadeData(t)
	dir := t.TempDir()
	w, err := OpenSegmentDir(dir, SegmentConfig{
		TelescopeSize: 2048, Origins: true, MaxSegmentScans: uint64(len(yd.Scans)/2 + 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ArchiveYear(w, &yd.Campaigns); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := w.SealedSegments()
	if len(segs) != 2 {
		t.Fatalf("%d segments, want 2", len(segs))
	}
	path := filepath.Join(dir, segs[1].Name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery().Count().Build()
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg CatalogConfig) (*QueryResult, bool, error) {
		cat, err := OpenCatalog(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cat.Close()
		v := cat.View()
		defer v.Release()
		res, err := RunQuery(context.Background(), q, v)
		return res, v.Degraded(), err
	}
	if _, _, err := run(CatalogConfig{}); err == nil || !strings.Contains(err.Error(), segs[1].Name) {
		t.Fatalf("strict RunQuery over a truncated segment: %v", err)
	}
	res, degraded, err := run(CatalogConfig{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if !degraded || res.Matched != segs[0].Scans {
		t.Fatalf("skip-corrupt RunQuery matched %d (degraded %v), want the intact segment's %d", res.Matched, degraded, segs[0].Scans)
	}
}
