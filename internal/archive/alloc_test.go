package archive

import (
	"io"
	"runtime"
	"testing"

	"github.com/synscan/synscan/internal/alloctest"
	"github.com/synscan/synscan/internal/obs"
)

// blockReadStore writes the store TestAllocBudgetBlockRead and
// BenchmarkArchiveRawBlock read: 4 000 scans in 16 KiB blocks whose strips
// are of both kinds a block can hold — random sources are stored, the rest
// deflated — so that the budget covers both streams.
func blockReadStore(tb testing.TB) (*Reader, []byte) {
	tb.Helper()
	reg := obs.NewRegistry()
	scans, origins := testScans(4000, 23)
	data := writeArchive(tb, scans, origins, WriterConfig{TelescopeSize: 4096, BlockBytes: 16 << 10, Metrics: reg})
	snap := reg.Snapshot()
	if snap.Counter("archive.strips.stored") == 0 || snap.Counter("archive.strips.deflated") == 0 {
		tb.Fatalf("%d strips stored, %d deflated: want blocks that hold both",
			snap.Counter("archive.strips.stored"), snap.Counter("archive.strips.deflated"))
	}
	r := openArchive(tb, data)
	if r.NumBlocks() < 2 {
		tb.Fatalf("want multiple blocks, got %d", r.NumBlocks())
	}
	return r, data
}

// TestAllocBudgetBlockRead is the enforced budget for the pooled archive
// read path: reading, checksumming and decompressing one block through the
// scratch free list may allocate at most 2 times per block in steady state
// (measured: 0). Everything is reused — the read and raw buffers in
// blockScratch, the DEFLATE state in internal/inflate (compress/flate would
// cost ~17 allocations/block rebuilding Huffman link tables per stream, the
// reason the archive carries its own inflater). Reported under
// "archive-block-read".
func TestAllocBudgetBlockRead(t *testing.T) {
	r, data := blockReadStore(t)
	if src := blockApart(t, data, 0).dir[stripSrc]; src[0] != storedLen(src[1]) {
		t.Fatalf("src strip: %d stored for %d raw bytes, want stored blocks", src[0], src[1])
	}
	visit := func([]byte) error { return nil }
	blocks, i := r.NumBlocks(), 0
	alloctest.Check(t, "archive-block-read", 2, func() {
		if err := r.RawBlock(i%blocks, visit); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// TestAllocBudgetAdd is the enforced budget for the write path: Writer.Add
// allocates nothing per record in steady state. One measured operation is a
// thousand records over blocks small enough that it spans about fifteen
// hand-offs, so the budget of zero also covers what a hand-off costs — the
// compressor goroutine's start, the DEFLATE of the block, the collection, the
// index entry — and says it amortises to less than one allocation per
// thousand records. Reported under "archive-add".
func TestAllocBudgetAdd(t *testing.T) {
	scans, origins := testScans(1000, 29)
	w, err := NewWriter(io.Discard, WriterConfig{TelescopeSize: 4096, Origins: true, BlockBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	alloctest.Check(t, "archive-add", 0, func() {
		for i, sc := range scans {
			if err := w.AddWithOrigin(sc, origins[i]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if blocks := len(w.index); blocks < 10*101 {
		t.Fatalf("%d blocks over 101 operations: the operation does not span hand-offs", blocks)
	}
}

// TestScratchOutlivesCollection pins what makes a query's allocation a
// property of the query and not of the collector's timing: garbage
// collections between two block reads cost no scratch. (Two in a row empty a
// sync.Pool, which the free list replaced; a fresh scratch is at least one
// 64 KiB buffer.)
func TestScratchOutlivesCollection(t *testing.T) {
	scans, origins := testScans(4000, 23)
	data := writeArchive(t, scans, origins, WriterConfig{TelescopeSize: 4096, BlockBytes: 16 << 10})
	r := openArchive(t, data)
	visit := func([]byte) error { return nil }
	_, bytes := alloctest.Measure(10, func() {
		runtime.GC()
		runtime.GC()
		if err := r.RawBlock(0, visit); err != nil {
			t.Fatal(err)
		}
	})
	if bytes >= 16<<10 {
		t.Fatalf("a block read after a collection allocates %.0f bytes: the scratch did not survive", bytes)
	}
}
