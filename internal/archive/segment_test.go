package archive

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/faultinject"
	"github.com/synscan/synscan/internal/obs"
)

// segStore opens a segment store in a fresh temp dir with small rotation
// bounds so tests produce several segments from modest inputs.
func segStore(t testing.TB, cfg SegmentConfig) *SegmentWriter {
	t.Helper()
	sw, err := OpenSegmentDir(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// crash abandons sw the way a dying process does: nothing is sealed or
// flushed, and the store's writer lock goes, as the kernel drops it with the
// process.
func crash(sw *SegmentWriter) { sw.lock.Close() }

// addAll appends scans to the store, failing the test on any error.
func addAll(t testing.TB, sw *SegmentWriter, scans []*core.Scan) {
	t.Helper()
	for _, sc := range scans {
		if err := sw.Add(sc); err != nil {
			t.Fatal(err)
		}
	}
}

// viewScans streams every scan in the view, in manifest (= emit) order.
func viewScans(t testing.TB, v *CatalogView) []*core.Scan {
	t.Helper()
	var out []*core.Scan
	for i := 0; i < v.Len(); i++ {
		if err := v.Reader(i).Query(context.Background(), All, func(sc *core.Scan, _ *enrich.Origin) {
			out = append(out, sc.Clone())
		}); err != nil {
			t.Fatalf("segment %s: %v", v.Name(i), err)
		}
	}
	return out
}

// catalogScans opens a throwaway catalog over dir and reads everything.
func catalogScans(t testing.TB, dir string, cfg CatalogConfig) []*core.Scan {
	t.Helper()
	c, err := OpenCatalog(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v := c.View()
	defer v.Release()
	return viewScans(t, v)
}

// TestSegmentRotationScans: the scan-count bound seals segments at exactly
// MaxSegmentScans records, and the store round-trips the input in order.
func TestSegmentRotationScans(t *testing.T) {
	sw := segStore(t, SegmentConfig{TelescopeSize: 4096, MaxSegmentScans: 100, BlockBytes: 2 << 10})
	scans, _ := testScans(350, 7)
	addAll(t, sw, scans)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	segs := sw.SealedSegments()
	if len(segs) != 4 {
		t.Fatalf("got %d segments, want 4", len(segs))
	}
	for i, s := range segs[:3] {
		if s.Scans != 100 {
			t.Fatalf("segment %d holds %d scans, want 100", i, s.Scans)
		}
	}
	if segs[3].Scans != 50 {
		t.Fatalf("last segment holds %d scans, want 50", segs[3].Scans)
	}
	got := catalogScans(t, sw.Dir(), CatalogConfig{})
	if !reflect.DeepEqual(got, scans) {
		t.Fatal("segment store round-trip mismatch")
	}
}

// TestSegmentRotationBytes: the on-disk size bound rotates without any help
// from the count bound.
func TestSegmentRotationBytes(t *testing.T) {
	sw := segStore(t, SegmentConfig{
		TelescopeSize: 4096, MaxSegmentBytes: 4 << 10, BlockBytes: 1 << 10,
	})
	scans, _ := testScans(2000, 11)
	addAll(t, sw, scans)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	segs := sw.SealedSegments()
	if len(segs) < 3 {
		t.Fatalf("size bound produced only %d segments", len(segs))
	}
	var total uint64
	for _, s := range segs {
		total += s.Scans
	}
	if total != 2000 {
		t.Fatalf("segments hold %d scans, want 2000", total)
	}
}

// TestSegmentRotationAge: the record-time span bound seals once scans drift
// more than MaxSegmentAge apart. testScans spreads records over ten years, so
// a one-year bound must yield multiple segments.
func TestSegmentRotationAge(t *testing.T) {
	sw := segStore(t, SegmentConfig{
		TelescopeSize: 4096, MaxSegmentAge: int64(365 * 24 * time.Hour),
	})
	scans, _ := testScans(200, 13)
	addAll(t, sw, scans)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(sw.SealedSegments()); n < 2 {
		t.Fatalf("age bound produced only %d segments", n)
	}
	got := catalogScans(t, sw.Dir(), CatalogConfig{})
	if !reflect.DeepEqual(got, scans) {
		t.Fatal("round-trip mismatch under age rotation")
	}
}

// TestSegmentStoreEquivalence: reading a segmented store in manifest order
// yields the identical scan sequence a single sealed archive of the same
// input does — the invariant synserve and the compactor both lean on.
func TestSegmentStoreEquivalence(t *testing.T) {
	scans, origins := testScans(3000, 3)
	single := writeArchive(t, scans, origins, WriterConfig{TelescopeSize: 4096, BlockBytes: 4 << 10})
	var want []*core.Scan
	if err := scan(t, openArchive(t, single), context.Background(), All, func(sc *core.Scan, _ *enrich.Origin) {
		want = append(want, sc.Clone())
	}); err != nil {
		t.Fatal(err)
	}

	sw := segStore(t, SegmentConfig{TelescopeSize: 4096, MaxSegmentScans: 250, BlockBytes: 4 << 10})
	addAll(t, sw, scans)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	got := catalogScans(t, sw.Dir(), CatalogConfig{})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("segment store diverges from single sealed archive")
	}
}

// TestCatalogDiscovery: a catalog picks up newly sealed segments on Refresh
// without reopening, generations advance only on real changes, and views
// taken before a refresh keep serving their frozen segment set.
func TestCatalogDiscovery(t *testing.T) {
	sw := segStore(t, SegmentConfig{TelescopeSize: 4096})
	scans, _ := testScans(300, 5)

	cat, err := OpenCatalog(sw.Dir(), CatalogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if v := cat.View(); v.Len() != 0 {
		t.Fatalf("empty store has %d segments", v.Len())
	} else {
		v.Release()
	}
	gen0 := cat.Generation()

	if changed, err := cat.Refresh(); err != nil || changed {
		t.Fatalf("no-op refresh: changed=%v err=%v", changed, err)
	}
	if cat.Generation() != gen0 {
		t.Fatal("generation moved without a segment-set change")
	}

	addAll(t, sw, scans[:100])
	if err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	old := cat.View()
	defer old.Release()

	if changed, err := cat.Refresh(); err != nil || !changed {
		t.Fatalf("refresh after seal: changed=%v err=%v", changed, err)
	}
	if cat.Generation() == gen0 {
		t.Fatal("generation did not advance on discovery")
	}
	v := cat.View()
	if v.Len() != 1 || v.NumScans() != 100 {
		t.Fatalf("view: %d segments / %d scans, want 1/100", v.Len(), v.NumScans())
	}
	v.Release()
	if old.Len() != 0 {
		t.Fatal("pre-refresh view mutated by Refresh")
	}

	addAll(t, sw, scans[100:])
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Refresh(); err != nil {
		t.Fatal(err)
	}
	v = cat.View()
	got := viewScans(t, v)
	v.Release()
	if !reflect.DeepEqual(got, scans) {
		t.Fatal("catalog does not serve the full appended sequence")
	}
}

// TestCompaction: small segments merge into one, the store's scan sequence is
// untouched, input files are deleted, and the catalog follows the swap.
func TestCompaction(t *testing.T) {
	sw := segStore(t, SegmentConfig{TelescopeSize: 4096, MaxSegmentScans: 100, BlockBytes: 1 << 10})
	scans, _ := testScans(600, 17)
	addAll(t, sw, scans)
	if err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	before := sw.SealedSegments()
	if len(before) != 6 {
		t.Fatalf("setup sealed %d segments, want 6", len(before))
	}

	cat, err := OpenCatalog(sw.Dir(), CatalogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	// A view held across the compaction keeps reading the retired inputs.
	held := cat.View()
	defer held.Release()

	reg := obs.NewRegistry()
	comp := NewCompactor(sw, CompactorConfig{MinRun: 2, MaxInputBytes: 1 << 30, Metrics: reg})
	n, err := comp.CompactOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("merged %d inputs, want 6", n)
	}
	after := sw.SealedSegments()
	if len(after) != 1 || !after[0].Compacted || after[0].Scans != 600 {
		t.Fatalf("post-compaction manifest: %+v", after)
	}
	for _, s := range before {
		if _, err := os.Stat(filepath.Join(sw.Dir(), s.Name)); !os.IsNotExist(err) {
			t.Fatalf("input %s not deleted", s.Name)
		}
	}
	if _, err := os.Stat(filepath.Join(sw.Dir(), IntentName)); !os.IsNotExist(err) {
		t.Fatal("intent journal left behind")
	}

	if got := viewScans(t, held); !reflect.DeepEqual(got, scans) {
		t.Fatal("held view lost data across compaction")
	}
	if changed, err := cat.Refresh(); err != nil || !changed {
		t.Fatalf("catalog refresh after compaction: changed=%v err=%v", changed, err)
	}
	v := cat.View()
	got := viewScans(t, v)
	v.Release()
	if !reflect.DeepEqual(got, scans) {
		t.Fatal("compacted store diverges from input sequence")
	}

	snap := reg.Snapshot()
	if snap.Counters["archive.compaction.runs"] != 1 ||
		snap.Counters["archive.segments.compacted"] != 6 {
		t.Fatalf("compaction metrics: %+v", snap.Counters)
	}
	if snap.Counters["archive.compaction.bytes_written"] == 0 {
		t.Fatal("bytes_written not counted")
	}

	// Nothing left small enough in a long-enough run: idle compactor.
	if n, err := comp.CompactOnce(); err != nil || n != 0 {
		t.Fatalf("second compaction: n=%d err=%v", n, err)
	}
}

// TestCompactionSkipsLargeSegments: segments at or above MaxInputBytes break
// runs; only contiguous runs of small segments merge.
func TestCompactionSkipsLargeSegments(t *testing.T) {
	sw := segStore(t, SegmentConfig{TelescopeSize: 4096, MaxSegmentScans: 50, BlockBytes: 1 << 10})
	scans, _ := testScans(300, 19)
	addAll(t, sw, scans)
	if err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	segs := sw.SealedSegments()
	if len(segs) != 6 {
		t.Fatalf("setup sealed %d segments, want 6", len(segs))
	}
	// Cut eligibility at the third segment's size: any segment at least that
	// large is a run breaker.
	cut := segs[2].Bytes
	comp := NewCompactor(sw, CompactorConfig{MinRun: 2, MaxInputBytes: cut})
	for {
		n, err := comp.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	for _, s := range sw.SealedSegments() {
		if s.Compacted && s.Bytes == 0 {
			t.Fatalf("degenerate merged segment %+v", s)
		}
	}
	got := catalogScans(t, sw.Dir(), CatalogConfig{})
	if !reflect.DeepEqual(got, scans) {
		t.Fatal("selective compaction corrupted the sequence")
	}
}

// TestCrashMidSegmentRecovery: a crash leaves a truncated .open segment and a
// sealed-but-unlisted one. Reopening removes the torn file, adopts the sealed
// stray, and the catalog serves everything that was durably sealed.
func TestCrashMidSegmentRecovery(t *testing.T) {
	sw := segStore(t, SegmentConfig{TelescopeSize: 4096, MaxSegmentScans: 100})
	dir := sw.Dir()
	scans, _ := testScans(250, 23)
	addAll(t, sw, scans) // seals seg 1 and 2; 50 scans buffered in seg 3

	// Simulate the crash: the open segment file exists, truncated mid-write
	// (no trailer), and is never sealed.
	openFiles, _ := filepath.Glob(filepath.Join(dir, "*"+openSuffix))
	if len(openFiles) != 1 {
		t.Fatalf("expected one open segment, found %v", openFiles)
	}

	// Also simulate a crash between seal-rename and manifest write: a valid
	// sealed file the manifest does not list.
	manBefore, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	strayScans, _ := testScans(40, 29)
	strayName := SegmentName(manBefore.NextSeq + 1)
	strayW, err := createSegment(dir, manBefore.NextSeq+1, SegmentConfig{TelescopeSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range strayScans {
		if err := strayW.Add(sc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := strayW.seal(); err != nil {
		t.Fatal(err)
	}
	// Abandon sw without Close — the crash. (Its buffered scans are lost by
	// design; they re-ingest from the capture.)
	crash(sw)

	sw2, err := OpenSegmentDir(dir, SegmentConfig{TelescopeSize: 4096, MaxSegmentScans: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer sw2.Close()
	if _, err := os.Stat(openFiles[0]); !os.IsNotExist(err) {
		t.Fatal("torn .open segment survived recovery")
	}
	segs := sw2.SealedSegments()
	if len(segs) != 3 {
		t.Fatalf("recovered %d segments, want 3 (2 sealed + 1 adopted)", len(segs))
	}
	if segs[2].Name != strayName || segs[2].Scans != 40 {
		t.Fatalf("adopted segment: %+v", segs[2])
	}
	want := append(append([]*core.Scan{}, scans[:200]...), strayScans...)
	got := catalogScans(t, dir, CatalogConfig{})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recovered store serves the wrong sequence")
	}
}

// TestCatalogSkipsUnreadableSegment: a segment truncated below its trailer is
// unreadable. A skip-corrupt catalog skips it, flags the store degraded,
// serves the intact segments, and heals (with a generation bump) once the
// file is whole again; a strict one fails the read, naming the segment, and
// heals the same way.
func TestCatalogSkipsUnreadableSegment(t *testing.T) {
	sw := segStore(t, SegmentConfig{TelescopeSize: 4096, MaxSegmentScans: 100})
	scans, _ := testScans(300, 31)
	addAll(t, sw, scans)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	segs := sw.SealedSegments()
	victim := filepath.Join(sw.Dir(), segs[1].Name)
	whole, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	strict, err := OpenCatalog(sw.Dir(), CatalogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	sv := strict.View()
	err = sv.Query(context.Background(), All, func(*core.Scan, *enrich.Origin) {
		t.Fatal("a strict view missing a segment streamed a scan")
	})
	sv.Release()
	if err == nil || !strings.Contains(err.Error(), segs[1].Name) {
		t.Fatalf("strict read of a store missing %s: %v", segs[1].Name, err)
	}

	reg := obs.NewRegistry()
	cat, err := OpenCatalog(sw.Dir(), CatalogConfig{SkipCorrupt: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	v := cat.View()
	if v.Len() != 2 || v.Missing() != 1 || !v.Degraded() {
		t.Fatalf("view over damaged store: len=%d missing=%d degraded=%v",
			v.Len(), v.Missing(), v.Degraded())
	}
	want := append(append([]*core.Scan{}, scans[:100]...), scans[200:]...)
	var got []*core.Scan
	if err := v.Query(context.Background(), All, func(sc *core.Scan, _ *enrich.Origin) {
		got = append(got, sc.Clone())
	}); err != nil {
		t.Fatal(err)
	}
	v.Release()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("intact segments did not serve around the unreadable one")
	}
	if reg.Snapshot().Counters["archive.segments.unreadable"] != 1 {
		t.Fatal("unreadable segment not counted")
	}

	// Heal the file; the next refresh must pick it up and bump the
	// generation so caches keyed on it invalidate.
	gen := cat.Generation()
	if err := os.WriteFile(victim, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if changed, err := cat.Refresh(); err != nil || !changed {
		t.Fatalf("healing refresh: changed=%v err=%v", changed, err)
	}
	if cat.Generation() == gen {
		t.Fatal("generation did not advance on heal")
	}
	if changed, err := strict.Refresh(); err != nil || !changed {
		t.Fatalf("healing refresh of the strict catalog: changed=%v err=%v", changed, err)
	}
	for _, c := range []*Catalog{cat, strict} {
		v = c.View()
		got = viewScans(t, v)
		degraded := v.Degraded()
		v.Release()
		if degraded || !reflect.DeepEqual(got, scans) {
			t.Fatalf("healed store (skip-corrupt %v) does not serve the full sequence", c.cfg.SkipCorrupt)
		}
	}
}

// TestCatalogSkipCorruptBlocks: flipped bytes inside one block degrade that
// segment (skipped block) without taking out the store, when the catalog opens
// readers in skip-corrupt mode.
func TestCatalogSkipCorruptBlocks(t *testing.T) {
	sw := segStore(t, SegmentConfig{TelescopeSize: 4096, MaxSegmentScans: 150, BlockBytes: 1 << 10})
	scans, _ := testScans(300, 37)
	addAll(t, sw, scans)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	segs := sw.SealedSegments()
	victim := filepath.Join(sw.Dir(), segs[0].Name)
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	// Flip bytes inside block payloads only — headerLen past the header,
	// clear of the index and trailer at the tail.
	faultinject.FlipBytes(data, 41, 8, headerLen+8, len(data)/2)
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cat, err := OpenCatalog(sw.Dir(), CatalogConfig{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	v := cat.View()
	defer v.Release()
	if v.Len() != 2 || v.Missing() != 0 {
		t.Fatalf("view: len=%d missing=%d", v.Len(), v.Missing())
	}
	got := viewScans(t, v)
	if !v.Degraded() {
		t.Fatal("corrupt blocks did not degrade the view")
	}
	if len(got) >= 300 || len(got) < 150 {
		t.Fatalf("got %d scans; want the intact segment plus partial victim", len(got))
	}
}

// TestCompactionRecoveryRollForward: crash after the merge output sealed but
// before the manifest swap. Recovery must complete the swap — adopting the
// output alongside its inputs would double every merged scan.
func TestCompactionRecoveryRollForward(t *testing.T) {
	sw := segStore(t, SegmentConfig{TelescopeSize: 4096, MaxSegmentScans: 100})
	scans, _ := testScans(400, 43)
	addAll(t, sw, scans)
	if err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	comp := NewCompactor(sw, CompactorConfig{MinRun: 2, MaxInputBytes: 1 << 30})

	// Drive the compaction by hand up to the crash point: intent journaled,
	// output sealed under its final name, manifest swap never issued.
	sw.mu.Lock()
	_, n, inputs, outSeq := comp.pickRun()
	sw.mu.Unlock()
	if n != 4 {
		t.Fatalf("picked run of %d, want 4", n)
	}
	names := make([]string, n)
	for i, in := range inputs {
		names[i] = in.Name
	}
	if err := writeIntent(sw.Dir(), &compactIntent{
		Output: SegmentMeta{Name: SegmentName(outSeq)}, Inputs: names,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := comp.merge(inputs, outSeq); err != nil {
		t.Fatal(err)
	}
	// Crash here: no replaceRun, manifest still lists the four inputs.
	crash(sw)

	sw2, err := OpenSegmentDir(sw.Dir(), SegmentConfig{TelescopeSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer sw2.Close()
	segs := sw2.SealedSegments()
	if len(segs) != 1 || !segs[0].Compacted || segs[0].Scans != 400 {
		t.Fatalf("roll-forward manifest: %+v", segs)
	}
	for _, name := range names {
		if _, err := os.Stat(filepath.Join(sw.Dir(), name)); !os.IsNotExist(err) {
			t.Fatalf("input %s survived roll-forward", name)
		}
	}
	got := catalogScans(t, sw.Dir(), CatalogConfig{})
	if !reflect.DeepEqual(got, scans) {
		t.Fatal("roll-forward lost or duplicated scans")
	}
}

// TestCompactionRecoveryRollBack: crash mid-merge — the intent exists but the
// output is incomplete. Recovery keeps the inputs and discards the partial
// output; nothing is lost.
func TestCompactionRecoveryRollBack(t *testing.T) {
	sw := segStore(t, SegmentConfig{TelescopeSize: 4096, MaxSegmentScans: 100})
	scans, _ := testScans(400, 47)
	addAll(t, sw, scans)
	if err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	outName := SegmentName(99)
	if err := writeIntent(sw.Dir(), &compactIntent{
		Output: SegmentMeta{Name: outName},
		Inputs: []string{SegmentName(1), SegmentName(2)},
	}); err != nil {
		t.Fatal(err)
	}
	// A torn output under its sealed name: trailer missing.
	if err := os.WriteFile(filepath.Join(sw.Dir(), outName), []byte("SYNApartial"), 0o644); err != nil {
		t.Fatal(err)
	}
	crash(sw)

	sw2, err := OpenSegmentDir(sw.Dir(), SegmentConfig{TelescopeSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer sw2.Close()
	if _, err := os.Stat(filepath.Join(sw.Dir(), outName)); !os.IsNotExist(err) {
		t.Fatal("partial output survived rollback")
	}
	if _, err := os.Stat(filepath.Join(sw.Dir(), IntentName)); !os.IsNotExist(err) {
		t.Fatal("intent journal survived rollback")
	}
	if len(sw2.SealedSegments()) != 4 {
		t.Fatalf("rollback manifest: %+v", sw2.SealedSegments())
	}
	got := catalogScans(t, sw.Dir(), CatalogConfig{})
	if !reflect.DeepEqual(got, scans) {
		t.Fatal("rollback lost scans")
	}
}

// TestCompactionRecoveryAlreadyLanded: crash after the manifest swap but
// before input-file deletion. Recovery just finishes the cleanup.
func TestCompactionRecoveryAlreadyLanded(t *testing.T) {
	sw := segStore(t, SegmentConfig{TelescopeSize: 4096, MaxSegmentScans: 100})
	scans, _ := testScans(400, 53)
	addAll(t, sw, scans)
	if err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	comp := NewCompactor(sw, CompactorConfig{MinRun: 2, MaxInputBytes: 1 << 30})
	sw.mu.Lock()
	at, n, inputs, outSeq := comp.pickRun()
	sw.mu.Unlock()
	names := make([]string, n)
	for i, in := range inputs {
		names[i] = in.Name
	}
	if err := writeIntent(sw.Dir(), &compactIntent{
		Output: SegmentMeta{Name: SegmentName(outSeq)}, Inputs: names,
	}); err != nil {
		t.Fatal(err)
	}
	meta, err := comp.merge(inputs, outSeq)
	if err != nil {
		t.Fatal(err)
	}
	sw.mu.Lock()
	err = sw.replaceRun(at, n, meta)
	sw.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// Crash here: swap landed, inputs still on disk, intent still present.
	crash(sw)

	sw2, err := OpenSegmentDir(sw.Dir(), SegmentConfig{TelescopeSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer sw2.Close()
	for _, name := range names {
		if _, err := os.Stat(filepath.Join(sw.Dir(), name)); !os.IsNotExist(err) {
			t.Fatalf("input %s not cleaned up", name)
		}
	}
	got := catalogScans(t, sw.Dir(), CatalogConfig{})
	if !reflect.DeepEqual(got, scans) {
		t.Fatal("post-swap recovery corrupted the store")
	}
}

// TestSegmentWriterCloseIdempotent: double Close on a segment store returns
// the first result and seals nothing twice.
func TestSegmentWriterCloseIdempotent(t *testing.T) {
	sw := segStore(t, SegmentConfig{TelescopeSize: 4096})
	scans, _ := testScans(10, 59)
	addAll(t, sw, scans)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	gen := sw.Generation()
	if err := sw.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if sw.Generation() != gen || len(sw.SealedSegments()) != 1 {
		t.Fatal("second Close mutated the store")
	}
	if err := sw.Add(scans[0]); err == nil {
		t.Fatal("Add after Close succeeded")
	}
	if err := sw.Seal(); err == nil {
		t.Fatal("Seal after Close succeeded")
	}
}

// TestConcurrentDiscoveryDuringQueries exercises the full live loop under the
// race detector: one goroutine appends and seals, one compacts, one refreshes
// the catalog, and several run queries against views the whole time.
func TestConcurrentDiscoveryDuringQueries(t *testing.T) {
	sw := segStore(t, SegmentConfig{TelescopeSize: 4096, MaxSegmentScans: 50, BlockBytes: 1 << 10})
	scans, _ := testScans(1000, 61)
	cat, err := OpenCatalog(sw.Dir(), CatalogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	comp := NewCompactor(sw, CompactorConfig{MinRun: 2, MaxInputBytes: 1 << 30})

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // ingest
		defer wg.Done()
		defer cancel()
		for _, sc := range scans {
			if err := sw.Add(sc); err != nil {
				t.Error(err)
				return
			}
		}
		if err := sw.Seal(); err != nil {
			t.Error(err)
		}
	}()

	wg.Add(1)
	go func() { // compact
		defer wg.Done()
		for ctx.Err() == nil {
			if _, err := comp.CompactOnce(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // discover
		defer wg.Done()
		for ctx.Err() == nil {
			if _, err := cat.Refresh(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() { // query
			defer wg.Done()
			for ctx.Err() == nil {
				v := cat.View()
				if v.Missing() != 0 {
					t.Errorf("view at generation %d misses %d segments: %v", v.Generation(), v.Missing(), v.missing)
				}
				n := 0
				for i := 0; i < v.Len(); i++ {
					if err := v.Reader(i).Query(context.Background(), All, func(*core.Scan, *enrich.Origin) { n++ }); err != nil {
						t.Errorf("query over %s: %v", v.Name(i), err)
					}
				}
				if uint64(n) != v.NumScans() {
					t.Errorf("view served %d scans, manifest says %d", n, v.NumScans())
				}
				v.Release()
			}
		}()
	}

	wg.Wait()
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	// Drain any final compaction and refresh, then verify the end state.
	if _, err := cat.Refresh(); err != nil {
		t.Fatal(err)
	}
	v := cat.View()
	got := viewScans(t, v)
	v.Release()
	if !reflect.DeepEqual(got, scans) {
		t.Fatalf("store serves %d scans after concurrent run, want %d", len(got), len(scans))
	}
}

// TestRefreshAcrossCompaction: a compaction that publishes and unlinks its
// inputs between a Refresh's manifest read and its segment opens does not
// make the inputs count as unreadable: the refresh re-reads the manifest that
// moved and opens the merged segment instead.
func TestRefreshAcrossCompaction(t *testing.T) {
	sw := segStore(t, SegmentConfig{TelescopeSize: 4096, MaxSegmentScans: 50})
	defer sw.Close()
	scans, _ := testScans(200, 73)
	cat, err := OpenCatalog(sw.Dir(), CatalogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	addAll(t, sw, scans)
	if err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	comp := NewCompactor(sw, CompactorConfig{MinRun: 2, MaxInputBytes: 1 << 30})
	cat.afterManifestRead = func() {
		cat.afterManifestRead = nil
		if merged, err := comp.CompactOnce(); err != nil || merged != 4 {
			t.Fatalf("compaction under the refresh merged %d segments: %v", merged, err)
		}
	}
	if _, err := cat.Refresh(); err != nil {
		t.Fatal(err)
	}
	v := cat.View()
	defer v.Release()
	if v.Missing() != 0 || v.Len() != 1 || !v.Meta(0).Compacted {
		t.Fatalf("view after the raced refresh: %d segments, %d missing: %v", v.Len(), v.Missing(), v.missing)
	}
	var got []*core.Scan
	if err := v.Query(context.Background(), All, func(sc *core.Scan, _ *enrich.Origin) {
		got = append(got, sc.Clone())
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, scans) {
		t.Fatalf("view serves %d scans, want %d", len(got), len(scans))
	}
}

// TestStoreNamesAreSegmentNames: a manifest or compaction intent entry that
// is not a segment name (here a file outside the store) is neither opened nor
// removed. Each intent is one recovery acts on: an output that does not open
// is rolled back (removed), and the inputs of a complete output the manifest
// no longer lists are cleaned up (removed). A manifest entry is a segment
// that does not open: a strict read fails, naming it.
func TestStoreNamesAreSegmentNames(t *testing.T) {
	for _, c := range []struct {
		file, body string
	}{
		{IntentName, `{"output":{"name":"../victim.txt"},"inputs":[]}`},
		{IntentName, `{"output":{"name":"seg-00000009.syna"},"inputs":["../victim.txt"]}`},
		{ManifestName, `{"generation":1,"next_seq":2,"segments":[{"name":"../victim.txt"}]}`},
	} {
		root := t.TempDir()
		dir := filepath.Join(root, "store")
		victim := filepath.Join(root, "victim.txt")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(victim, []byte("not a segment\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		out := writeArchive(t, nil, nil, WriterConfig{TelescopeSize: 4096})
		if err := os.WriteFile(filepath.Join(dir, SegmentName(9)), out, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, c.file), []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		sw, err := OpenSegmentDir(dir, SegmentConfig{TelescopeSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		cat, err := OpenCatalog(dir, CatalogConfig{})
		if err != nil {
			t.Fatal(err)
		}
		v := cat.View()
		err = v.Query(context.Background(), All, func(*core.Scan, *enrich.Origin) {})
		if listed := c.file == ManifestName; listed != (err != nil) ||
			listed && !(errors.Is(err, ErrCorrupt) && strings.Contains(err.Error(), "../victim.txt")) {
			t.Errorf("%s %s: strict read: %v", c.file, c.body, err)
		}
		v.Release()
		cat.Close()
		if _, err := os.Stat(victim); err != nil {
			t.Errorf("%s %s: the file outside the store is gone: %v", c.file, c.body, err)
		}
	}
}

// TestOpenCatalogNeedsDirectory: a missing path and a regular file are not
// stores, and the error names the path; an existing empty directory is an
// empty store.
func TestOpenCatalogNeedsDirectory(t *testing.T) {
	root := t.TempDir()
	file := filepath.Join(root, "seg.syna")
	if err := os.WriteFile(file, writeArchive(t, nil, nil, WriterConfig{TelescopeSize: 4096}), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(root, "missing"), file} {
		if cat, err := OpenCatalog(path, CatalogConfig{}); err == nil {
			cat.Close()
			t.Errorf("OpenCatalog(%s) opened", path)
		} else if !strings.Contains(err.Error(), path) {
			t.Errorf("OpenCatalog(%s): the error does not name the path: %v", path, err)
		}
	}
	cat, err := OpenCatalog(root, CatalogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if v := cat.View(); v.Len() != 0 || v.Missing() != 0 {
		t.Fatalf("an empty directory opened as %d segments, %d missing", v.Len(), v.Missing())
	}
}

// TestManifestAtomicity: a torn manifest tmp file never shadows the real one.
func TestManifestAtomicity(t *testing.T) {
	sw := segStore(t, SegmentConfig{TelescopeSize: 4096})
	scans, _ := testScans(20, 67)
	addAll(t, sw, scans)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(sw.Dir(), ManifestName+".tmp")
	if err := os.WriteFile(tmp, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	sw2, err := OpenSegmentDir(sw.Dir(), SegmentConfig{TelescopeSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer sw2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("torn manifest tmp survived recovery")
	}
	if len(sw2.SealedSegments()) != 1 {
		t.Fatalf("manifest lost: %+v", sw2.SealedSegments())
	}
}

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, seq := range []uint64{1, 7, 99999999, 123456789} {
		name := SegmentName(seq)
		got, ok := segmentSeq(name)
		if !ok || got != seq {
			t.Fatalf("segmentSeq(%q) = %d,%v", name, got, ok)
		}
	}
	for _, bad := range []string{"seg-.syna", "seg-12ab.syna", "MANIFEST.json", "seg-00000001.syna.open"} {
		if _, ok := segmentSeq(bad); ok {
			t.Fatalf("segmentSeq(%q) accepted", bad)
		}
	}
}

// BenchmarkYearLookup quantifies the YearCache win on the ingest hot path:
// the cached range check versus the time.Unix breakdown it replaced.
func BenchmarkYearLookup(b *testing.B) {
	scans, _ := testScans(4096, 71)
	starts := make([]int64, len(scans))
	for i, sc := range scans {
		starts[i] = sc.Start
	}
	// Emit order is near-chronological in practice; sorted starts model the
	// year locality the cache exploits (testScans interleaves ten years).
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		var sink int
		for i := 0; i < b.N; i++ {
			sink += YearOf(starts[i%len(starts)])
		}
		_ = sink
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		var c YearCache
		var sink uint16
		for i := 0; i < b.N; i++ {
			sink += c.Year(starts[i%len(starts)])
		}
		_ = sink
	})
}

// TestSecondWriterRefused: while one writer holds a store, a second
// OpenSegmentDir fails with ErrStoreLocked naming the directory and runs no
// recovery — the first writer's unsealed segment survives and seals — and
// readers open the store meanwhile. Close releases the lock.
func TestSecondWriterRefused(t *testing.T) {
	sw := segStore(t, SegmentConfig{TelescopeSize: 4096})
	dir := sw.Dir()
	scans, _ := testScans(50, 59)
	addAll(t, sw, scans) // all buffered in seg 1, still open
	open := filepath.Join(dir, SegmentName(1)+openSuffix)
	if _, err := os.Stat(open); err != nil {
		t.Fatalf("no open segment to protect: %v", err)
	}

	sw2, err := OpenSegmentDir(dir, SegmentConfig{TelescopeSize: 4096})
	if !errors.Is(err, ErrStoreLocked) || !strings.Contains(err.Error(), dir) {
		t.Fatalf("second writer: %v, %v; want ErrStoreLocked naming %s", sw2, err, dir)
	}
	if _, err := os.Stat(open); err != nil {
		t.Fatalf("the refused writer touched the open segment: %v", err)
	}
	cat, err := OpenCatalog(dir, CatalogConfig{})
	if err != nil {
		t.Fatalf("a reader beside the writer: %v", err)
	}
	cat.Close()

	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := catalogScans(t, dir, CatalogConfig{}); !reflect.DeepEqual(got, scans) {
		t.Fatalf("store serves %d scans after the refused open, want the %d written", len(got), len(scans))
	}
	sw3, err := OpenSegmentDir(dir, SegmentConfig{TelescopeSize: 4096})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	if err := sw3.Close(); err != nil {
		t.Fatal(err)
	}
}
