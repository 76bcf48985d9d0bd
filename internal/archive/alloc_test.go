package archive

import (
	"runtime"
	"testing"

	"github.com/synscan/synscan/internal/alloctest"
)

// TestAllocBudgetBlockRead is the enforced budget for the pooled archive
// read path: reading, checksumming and decompressing one block through the
// scratch free list may allocate at most 2 times per block in steady state
// (measured: 0). Everything is reused — the read and raw buffers in
// blockScratch, the DEFLATE state in internal/inflate (compress/flate would
// cost ~17 allocations/block rebuilding Huffman link tables per stream, the
// reason the archive carries its own inflater). Reported under
// "archive-block-read".
func TestAllocBudgetBlockRead(t *testing.T) {
	scans, origins := testScans(4000, 23)
	data := writeArchive(t, scans, origins, WriterConfig{TelescopeSize: 4096, BlockBytes: 16 << 10})
	r := openArchive(t, data)
	blocks := r.NumBlocks()
	if blocks < 2 {
		t.Fatalf("want multiple blocks, got %d", blocks)
	}
	visit := func([]byte) error { return nil }
	i := 0
	alloctest.Check(t, "archive-block-read", 2, func() {
		if err := r.RawBlock(i%blocks, visit); err != nil {
			t.Fatal(err)
		}
		i++
	})
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
