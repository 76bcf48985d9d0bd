package archive

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
)

// TestPoolPoisoning pins the aliasing contract of the block-scratch pool:
// every byte a decoded scan keeps is a copy, so scans handed out by one
// CatalogView generation survive the pool recycling (and here: poisoning)
// that later generations' queries cause. With poisoning on, any record field
// still aliasing pooled scratch turns into 0xdb garbage and fails the
// comparison; under -race, any cross-goroutine scratch sharing is caught by
// the concurrent query storm.
func TestPoolPoisoning(t *testing.T) {
	poisonScratch.Store(true)
	defer poisonScratch.Store(false)

	scans, _ := testScans(3000, 21)
	sw := segStore(t, SegmentConfig{TelescopeSize: 4096, MaxSegmentScans: 400})
	addAll(t, sw, scans[:2000])
	if err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenCatalog(sw.Dir(), CatalogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	v1 := cat.View()
	gen1 := viewScans(t, v1) // decoded through pooled (poisoned-on-release) scratch

	// Churn: a second generation plus a concurrent query storm recycles —
	// and scribbles — every scratch the first read used.
	addAll(t, sw, scans[2000:])
	if err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	if changed, err := cat.Refresh(); err != nil || !changed {
		t.Fatalf("Refresh: changed=%v err=%v", changed, err)
	}
	v2 := cat.View()
	defer v2.Release()
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := 0; i < v2.Len(); i++ {
					if err := v2.Reader(i).Query(context.Background(), All, func(*core.Scan, *enrich.Origin) {}); err != nil {
						errc <- fmt.Errorf("segment %s: %w", v2.Name(i), err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	v1.Release()

	// The generation-1 scans must be byte-identical to a fresh decode (and
	// to what was archived) — no 0xdb poison anywhere.
	fresh := catalogScans(t, sw.Dir(), CatalogConfig{})
	if len(fresh) < len(gen1) {
		t.Fatalf("fresh read returned %d scans, generation 1 had %d", len(fresh), len(gen1))
	}
	for i := range gen1 {
		if !reflect.DeepEqual(gen1[i], fresh[i]) {
			t.Fatalf("scan %d mutated by pool recycling:\n held:  %+v\n fresh: %+v",
				i, gen1[i], fresh[i])
		}
		if !reflect.DeepEqual(gen1[i], scans[i]) {
			t.Fatalf("scan %d drifted from archived value:\n held:     %+v\n archived: %+v",
				i, gen1[i], scans[i])
		}
	}
}

// TestRawBlockPooledRead exercises the exported raw-block surface: every
// block's raw bytes are handed out exactly once with the indexed RawLen, the
// scratch is pool-owned (bytes are only valid inside visit — enforced by the
// poisoning above), and out-of-range indexes fail cleanly.
func TestRawBlockPooledRead(t *testing.T) {
	scans, origins := testScans(2000, 22)
	data := writeArchive(t, scans, origins, WriterConfig{TelescopeSize: 4096, BlockBytes: 8 << 10})
	r := openArchive(t, data)
	if r.NumBlocks() < 2 {
		t.Fatalf("want multiple blocks, got %d", r.NumBlocks())
	}
	var total uint64
	for i, z := range r.Blocks() {
		if err := r.RawBlock(i, func(raw []byte) error {
			if uint32(len(raw)) != z.RawLen {
				return fmt.Errorf("block %d: %d raw bytes, index says %d", i, len(raw), z.RawLen)
			}
			total += uint64(len(raw))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if total == 0 {
		t.Fatal("no raw bytes visited")
	}
	if err := r.RawBlock(-1, func([]byte) error { return nil }); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := r.RawBlock(r.NumBlocks(), func([]byte) error { return nil }); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}
