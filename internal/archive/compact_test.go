package archive

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/obs"
)

// TestCompactionOriginlessInput: a segment written without origins sits in
// an origins store (an adopted file from an older writer). Its blocks have
// another record layout, so however full they are they must be decoded and
// re-encoded with zero origins; moved as they are, the output would not
// decode.
func TestCompactionOriginlessInput(t *testing.T) {
	cfg := SegmentConfig{TelescopeSize: 4096, Origins: true, BlockBytes: 4 << 10}
	sw := segStore(t, cfg)
	scans, origins := testScans(1500, 67)
	sealRuns(t, sw, scans, origins, 500, 500)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	bare, err := createSegment(sw.Dir(), 7, SegmentConfig{TelescopeSize: 4096, BlockBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scans[1000:] {
		if err := bare.Add(sc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bare.seal(); err != nil {
		t.Fatal(err)
	}
	if len(bare.index) < 4 {
		t.Fatalf("the origins-less input has %d blocks, want several full ones", len(bare.index))
	}

	reg := obs.NewRegistry()
	sw, err = OpenSegmentDir(sw.Dir(), cfg) // adopts the stray segment behind the two listed ones
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	comp := NewCompactor(sw, CompactorConfig{MinRun: 2, Metrics: reg})
	if merged, err := comp.CompactOnce(); err != nil || merged != 3 {
		t.Fatalf("merged %d inputs, err %v", merged, err)
	}

	cat, err := OpenCatalog(sw.Dir(), CatalogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	v := cat.View()
	defer v.Release()
	i := 0
	for s := 0; s < v.Len(); s++ {
		err := v.Reader(s).Query(context.Background(), All, func(sc *core.Scan, o *enrich.Origin) {
			want := enrich.Origin{}
			if i < 1000 {
				want = origins[i]
			}
			if i < len(scans) && (!reflect.DeepEqual(sc, scans[i]) || o == nil || *o != want) {
				t.Fatalf("scan %d: got %+v origin %+v, want %+v origin %+v", i, sc, o, scans[i], want)
			}
			i++
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if i != len(scans) {
		t.Fatalf("read %d scans, want %d", i, len(scans))
	}
	// The two origins inputs offer full blocks to move; none of the third's
	// may have been.
	moved := reg.Snapshot().Counter("archive.compaction.blocks_moved")
	if max := uint64(sw.SealedSegments()[0].Blocks - len(bare.index) + 1); moved == 0 || moved > max {
		t.Fatalf("%d blocks moved, want between 1 and %d", moved, max)
	}
}

// TestCompactionCorruptInput: a damaged input block — a full one the merge
// would move, or a small one it would decode — aborts the merge with the
// store exactly as it was: same manifest, every input in place, no partial
// output, no intent journal.
func TestCompactionCorruptInput(t *testing.T) {
	for _, c := range []struct {
		name    string
		segment int // which input to damage
		block   func(n int) int
	}{
		{"moved block", 1, func(n int) int { return 1 }},
		{"decoded block", 2, func(n int) int { return n - 1 }},
	} {
		reg := obs.NewRegistry()
		sw := segStore(t, SegmentConfig{TelescopeSize: 4096, BlockBytes: 4 << 10})
		scans, _ := testScans(2000, 71)
		sealRuns(t, sw, scans, nil, 500, 510, 520, 470)
		before := sw.SealedSegments()

		path := filepath.Join(sw.Dir(), before[c.segment].Name)
		rd, err := openSegment(sw.Dir(), before[c.segment].Name, false)
		if err != nil {
			t.Fatal(err)
		}
		zones := rd.Blocks()
		rd.Close()
		z := zones[c.block(len(zones))]
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[int(z.Offset)+blockCRCLen+int(z.CompressedLen)/2] ^= 0x55
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		comp := NewCompactor(sw, CompactorConfig{MinRun: 2, Metrics: reg})
		merged, err := comp.CompactOnce()
		if err == nil || merged != 0 || !strings.Contains(err.Error(), before[c.segment].Name) {
			t.Fatalf("%s: merged %d inputs, err %v; want an error naming %s", c.name, merged, err, before[c.segment].Name)
		}
		if got := sw.SealedSegments(); !reflect.DeepEqual(got, before) {
			t.Fatalf("%s: manifest changed by an aborted merge: %+v", c.name, got)
		}
		entries, err := os.ReadDir(sw.Dir())
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(before)+2 { // the inputs, the manifest and the lock
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			t.Fatalf("%s: aborted merge left %v", c.name, names)
		}
		if n := reg.Snapshot().Counter("archive.compaction.errors"); n != 1 {
			t.Fatalf("%s: %d compaction errors counted, want 1", c.name, n)
		}
		sw.Close()
	}
}

// TestCompactionMovesFullBlocks builds the store the benchmark's query
// workloads build — ten segments of about twenty thousand campaigns with
// origins, default block size — and requires that compacting it moves at
// least 70 % of the output's bytes instead of deflating them again.
func TestCompactionMovesFullBlocks(t *testing.T) {
	reg := obs.NewRegistry()
	sw := segStore(t, SegmentConfig{TelescopeSize: 1024, Origins: true, MaxSegmentScans: 20_001, Metrics: reg})
	defer sw.Close()
	scans, origins := testScans(200_000, 73)
	for i, sc := range scans {
		if err := sw.AddWithOrigin(sc, origins[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	if n := len(sw.SealedSegments()); n != 10 {
		t.Fatalf("built %d segments, want 10", n)
	}
	built := reg.Snapshot().Histograms["archive.compress_ns"].Count

	comp := NewCompactor(sw, CompactorConfig{Metrics: reg})
	if merged, err := comp.CompactOnce(); err != nil || merged != 10 {
		t.Fatalf("merged %d inputs, err %v", merged, err)
	}
	out := sw.SealedSegments()[0]
	snap := reg.Snapshot()
	moved := snap.Counter("archive.compaction.bytes_moved")
	share := float64(moved) / float64(out.Bytes)
	t.Logf("%.0f%% of the output's %d bytes moved, %d blocks of %d", share*100, out.Bytes,
		snap.Counter("archive.compaction.blocks_moved"), out.Blocks)
	if share < 0.70 {
		t.Fatalf("%.0f%% of the output's %d bytes were moved, want at least 70%%", share*100, out.Bytes)
	}
	// What was not moved was deflated, once per block, and nothing else was.
	deflated := snap.Histograms["archive.compress_ns"].Count - built
	if rewritten := snap.Counter("archive.compaction.blocks_rewritten"); deflated != rewritten {
		t.Fatalf("%d blocks deflated during the merge, %d counted as rewritten", deflated, rewritten)
	}
}
