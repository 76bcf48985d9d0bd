package archive

import (
	"context"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
)

// detectorScans closes n Masscan probes from the given number of sources
// through the detector: campaigns as ingest hands them to a writer, short
// port lists and sources numbered 1, 2, 3…
func detectorScans(n, sources int) []*core.Scan {
	r := rng.New(3)
	probers := make([]tools.Prober, sources)
	for i := range probers {
		probers[i] = tools.NewMasscan(uint32(i+1), r.DeriveN("s", uint64(i)))
	}
	var scans []*core.Scan
	d := core.NewDetector(core.Config{TelescopeSize: 65536}, func(s *core.Scan) { scans = append(scans, s) })
	var tm int64
	for i := 0; i < n; i++ {
		p := probers[i%sources].Probe(uint32(i), 443)
		tm += int64(r.Intn(10)) * int64(time.Millisecond)
		if i%50000 == 0 && i > 0 {
			tm += 2 * int64(time.Hour)
		}
		p.Time = tm
		d.Ingest(&p)
	}
	d.FlushAll()
	return scans
}

// BenchmarkArchiveRawBlock is the micro-view of the stage ledger's
// archive.block_read_us_per_block without the record decode on top: one
// pooled RawBlock — ReadAt, checksum, DEFLATE — of TestAllocBudgetBlockRead's
// store, whose blocks hold stored and deflated strips alike.
func BenchmarkArchiveRawBlock(b *testing.B) {
	r, _ := blockReadStore(b)
	blocks := r.NumBlocks()
	visit := func([]byte) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.RawBlock(i%blocks, visit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchiveWrite is the micro-view of the stage ledger's
// archive.build_scans_per_s and archive.compact_s: one op appends every scan
// to a fresh segment store that seals ten segments, then compacts until the
// compactor finds nothing more to merge — the write path of the query
// workloads' set-up, on detector output with short port lists. scans/s counts
// the scans of one op against the whole op, compaction included.
func BenchmarkArchiveWrite(b *testing.B) {
	scans := detectorScans(400000, 65536)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := OpenSegmentDir(b.TempDir(), SegmentConfig{
			TelescopeSize: 65536, MaxSegmentScans: uint64(len(scans)/10 + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range scans {
			if err := sw.Add(s); err != nil {
				b.Fatal(err)
			}
		}
		if err := sw.Seal(); err != nil {
			b.Fatal(err)
		}
		comp := NewCompactor(sw, CompactorConfig{})
		for {
			merged, err := comp.CompactOnce()
			if err != nil {
				b.Fatal(err)
			}
			if merged == 0 {
				break
			}
		}
		if segs := sw.SealedSegments(); len(segs) != 1 || segs[0].Scans != uint64(len(scans)) {
			b.Fatalf("store after compaction: %+v", segs)
		}
		if err := sw.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(scans))*float64(b.N)/b.Elapsed().Seconds(), "scans/s")
}

// BenchmarkArchiveQuery is the micro-view of the stage ledger's
// archive.query_us_per_query: one op scans every sealed segment of a store
// through a catalog view — zone-map pruning, block read, inflate, record
// decode. "full" matches every scan, as query_fullscan's aggregates do;
// "pruned" asks for one year and one tool, which the zone maps of a store in
// start order cut to a few of its blocks, as query_selective's filters do.
func BenchmarkArchiveQuery(b *testing.B) {
	scans, origins := testScans(20000, 6)
	sortScansByStart(scans)
	sw, err := OpenSegmentDir(b.TempDir(), SegmentConfig{TelescopeSize: 65536, Origins: true, BlockBytes: 32 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer sw.Close()
	segments := make([]int, 10)
	for i := range segments {
		segments[i] = len(scans) / len(segments)
	}
	sealRuns(b, sw, scans, origins, segments...)
	cat, err := OpenCatalog(sw.Dir(), CatalogConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer cat.Close()
	for _, bc := range []struct {
		name string
		p    Predicate
	}{
		{"full", All},
		{"pruned", &Filter{Years: []int{2020}, Tools: []tools.Tool{tools.ToolZMap}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v := cat.View()
				n := 0
				if err := v.Query(context.Background(), bc.p, func(*core.Scan, *enrich.Origin) { n++ }); err != nil {
					b.Fatal(err)
				}
				v.Release()
				if n == 0 || (bc.p == All) != (n == len(scans)) {
					b.Fatalf("%s matched %d of %d scans", bc.name, n, len(scans))
				}
			}
		})
	}
}
