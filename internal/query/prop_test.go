package query

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/fingerprint"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
)

// randQuery builds a random aggregate (or select) query over the genScans
// value distribution. Ordering is always by key: float-sum ulp drift between
// execution plans must never be able to flip a row order the comparison
// depends on.
func randQuery(r *rng.Rand, withOrigins bool) *Query {
	b := NewBuilder().OrderByKey()
	// Random filter: 0-3 conjoined clauses, possibly wrapped in not/or.
	nClauses := int(r.Uint32() % 4)
	for i := 0; i < nClauses; i++ {
		var e Expr
		switch r.Uint32() % 9 {
		case 0:
			e = YearIn(2015+int(r.Uint32()%10), 2015+int(r.Uint32()%10))
		case 1:
			e = PortAny(uint16(r.Uint32()%3000), uint16(r.Uint32()%3000))
		case 2:
			e = ToolIn(tools.Tool(r.Uint32()%7), tools.Tool(r.Uint32()%7))
		case 3:
			e = Qualified(r.Uint32()%2 == 0)
		case 4:
			e = RateBetween(float64(r.Uint32()%2000), 0)
		case 5:
			base := uint32(r.Uint32()) &^ 0xFFFFFF // keep a /8
			e = SrcIn(inetmodel.Prefix{Base: base, Bits: 8})
		case 6:
			e = TwoPhaseIs(r.Uint32()%2 == 0)
		case 7:
			e = ISNIn(fingerprint.ISNClass(r.Uint32()%4), fingerprint.ISNClass(r.Uint32()%4))
		default:
			lo := time.Date(2015+int(r.Uint32()%10), time.January, 1, 0, 0, 0, 0, time.UTC).UnixNano()
			e = TimeBetween(lo, lo+int64(200*24)*int64(time.Hour))
		}
		if r.Uint32()%4 == 0 {
			e = Not(e)
		}
		b.Where(e)
	}
	// Random grouping.
	groupPool := []Field{FieldYear, FieldTool, FieldPort, FieldQualified,
		FieldTwoPhase, FieldISN}
	if withOrigins {
		groupPool = append(groupPool, FieldType, FieldCountry)
	}
	nGroup := int(r.Uint32() % 3)
	for i := 0; i < nGroup && i < len(groupPool); i++ {
		f := groupPool[r.Uint32()%uint32(len(groupPool))]
		dup := false
		for _, g := range b.groupBy {
			if g == f {
				dup = true
			}
		}
		if !dup {
			b.GroupBy(f)
		}
	}
	// Aggregates: every operator, so each random archive exercises them all.
	b.Count().
		Sum(FieldPackets).
		Sum(FieldRate).
		Sum(FieldTwoPhase).
		Sum(FieldHandshakePackets).
		Sum(FieldPayloadBytes).
		CountDistinct(FieldSrc).
		ApproxDistinct(FieldSrc).
		TopK(FieldISN, 4).
		TopK(FieldPort, 8).
		Quantiles(FieldRate, 0.5, 0.9, 0.99)
	q, err := b.Build()
	if err != nil {
		panic(err) // generator bug, not an input property
	}
	return q
}

// materializedRun is the reference plan: read EVERY scan (no pushdown, no
// predicate), buffer the matching ones, then aggregate the buffered list.
func materializedRun(t *testing.T, q *Query, rd *archive.Reader) *Result {
	t.Helper()
	var scans []*core.Scan
	var origins []enrich.Origin
	err := rd.Query(context.Background(), archive.All, func(sc *core.Scan, o *enrich.Origin) {
		scans = append(scans, sc)
		if o != nil {
			origins = append(origins, *o)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	src := SliceSource{Scans: scans}
	if rd.HasOrigins() {
		src.Origins = origins
	}
	res, err := Run(context.Background(), q, src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPropPushdownEqualsMaterialized: for randomized archives and randomized
// queries, per-block pushdown aggregation equals the materialize-then-
// aggregate reference — with and without origins, in archived order and in
// time-sorted order (which makes the zone maps actually prune).
func TestPropPushdownEqualsMaterialized(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			r := rng.New(uint64(1000 + trial))
			withOrigins := trial%2 == 0
			scans, origins := genScans(1500+int(r.Uint32()%1500), uint64(trial))
			if trial%3 == 0 {
				sort.Slice(scans, func(i, j int) bool { return scans[i].Start < scans[j].Start })
			}
			data := writeArc(t, scans, origins, withOrigins)
			rd := openArc(t, data)
			for qi := 0; qi < 6; qi++ {
				q := randQuery(r, withOrigins)
				got, err := Run(context.Background(), q, ReaderSource{R: rd})
				if err != nil {
					t.Fatal(err)
				}
				want := materializedRun(t, q, rd)
				sameResults(t, got, want)
			}
		})
	}
}

// TestPropDegradedReads: with a corrupted block and skip-corrupt readers,
// pushdown and materialized plans still agree — both lose exactly the
// damaged block's scans.
func TestPropDegradedReads(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			r := rng.New(uint64(2000 + trial))
			withOrigins := trial%2 == 0
			scans, origins := genScans(2000, uint64(100+trial))
			data := writeArc(t, scans, origins, withOrigins)

			// Corrupt one block's compressed payload (past the CRC prefix, so
			// the checksum catches it).
			probe := openArc(t, data)
			blocks := probe.Blocks()
			z := blocks[int(r.Uint32())%len(blocks)]
			off := int(z.Offset) + 4 + int(z.CompressedLen)/2
			data[off] ^= 0xFF

			rd := openArc(t, data, archive.WithSkipCorrupt())
			for qi := 0; qi < 4; qi++ {
				q := randQuery(r, withOrigins)
				got, err := Run(context.Background(), q, ReaderSource{R: rd})
				if err != nil {
					t.Fatal(err)
				}
				want := materializedRun(t, q, rd)
				sameResults(t, got, want)
			}
			if rd.CorruptBlocks() == 0 {
				t.Fatal("corruption was never observed")
			}
		})
	}
}

// TestPropAcrossCompaction: aggregates over a live segment store are
// unchanged by compaction — the merged segment set is a different partial
// decomposition of the same scan stream.
func TestPropAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	sw, err := archive.OpenSegmentDir(dir, archive.SegmentConfig{
		TelescopeSize: 4096, Origins: true, BlockBytes: 4 << 10,
		MaxSegmentScans: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	scans, origins := genScans(2400, 42)
	for i, sc := range scans {
		if err := sw.AddWithOrigin(sc, origins[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Seal(); err != nil {
		t.Fatal(err)
	}

	cat, err := archive.OpenCatalog(dir, archive.CatalogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	defer sw.Close()

	r := rng.New(7)
	queries := make([]*Query, 5)
	for i := range queries {
		queries[i] = randQuery(r, true)
	}
	runAll := func() []*Result {
		v := cat.View()
		defer v.Release()
		if v.Len() == 0 {
			t.Fatal("no segments visible")
		}
		out := make([]*Result, len(queries))
		for i, q := range queries {
			res, err := Run(context.Background(), q, ViewSource{V: v})
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res
		}
		return out
	}

	before := runAll()
	comp := archive.NewCompactor(sw, archive.CompactorConfig{MinRun: 2})
	mergedTotal := 0
	for {
		merged, err := comp.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if merged == 0 {
			break
		}
		mergedTotal += merged
	}
	if mergedTotal == 0 {
		t.Fatal("compaction merged nothing; store config defeats the test")
	}
	if _, err := cat.Refresh(); err != nil {
		t.Fatal(err)
	}
	after := runAll()
	for i := range queries {
		sameResults(t, after[i], before[i])
	}
}
