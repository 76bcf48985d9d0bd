package query

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/rng"
)

// randQuery builds a random aggregate query over the scans under test, drawn
// from the field table: filter leaves over any row (around the value a random
// scan has, see leafFrom), grouping over the groupable rows, and every
// aggregate operator over a random row that accepts it — so a new row is
// covered without an edit here. Rows that need an origin are drawn only when
// the source has origins. Ordering is always by key: float-sum ulp drift
// between execution plans must never be able to flip a row order the
// comparison depends on.
func randQuery(r *rng.Rand, scans []*core.Scan, origins []enrich.Origin, withOrigins bool) *Query {
	pick := func(ok func(*fieldDef) bool) Field {
		var pool []Field
		for _, f := range Fields() {
			if d := f.def(); ok(d) && (withOrigins || !d.needsOrigin()) {
				pool = append(pool, f)
			}
		}
		return pool[int(r.Uint32())%len(pool)]
	}
	any := func(*fieldDef) bool { return true }
	can := func(c caps) func(*fieldDef) bool {
		return func(d *fieldDef) bool { return d.caps&c != 0 }
	}
	b := NewBuilder().OrderByKey()
	// Random filter: 0-3 conjoined clauses, possibly negated.
	nClauses := int(r.Uint32() % 4)
	for i := 0; i < nClauses; i++ {
		k := int(r.Uint32()) % len(scans)
		e := leafFrom(pick(any), scans[k], &origins[k], r)
		if r.Uint32()%4 == 0 {
			e = Not(e)
		}
		b.Where(e)
	}
	// Random grouping.
	nGroup := int(r.Uint32() % 3)
	for i := 0; i < nGroup; i++ {
		if f := pick(can(capGroup)); !slices.Contains(b.groupBy, f) {
			b.GroupBy(f)
		}
	}
	// Aggregates: every operator, so each random archive exercises them all.
	numeric := (*fieldDef).numeric
	b.Count().
		Sum(pick(numeric)).
		Sum(pick(numeric)).
		Sum(pick(numeric)).
		CountDistinct(pick(can(capDistinct))).
		ApproxDistinct(pick(can(capDistinct))).
		TopK(pick(can(capTopK)), 4).
		TopK(pick(can(capTopK)), 8).
		Quantiles(pick(numeric), 0.5, 0.9, 0.99)
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
		scans = append(scans, sc.Clone())
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
				q := randQuery(r, scans, origins, withOrigins)
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
				q := randQuery(r, scans, origins, withOrigins)
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
		queries[i] = randQuery(r, scans, origins, true)
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

// TestConcurrentQueriesEqualSerial: aggregates and selects of different
// projections, run at once from several goroutines — over one archive Reader,
// and over a CatalogView held while a compaction rewrites the store under it
// — answer exactly what each answers alone. Every result is encoded only
// after all of them have run, so a select row that still pointed into a
// reader's recycled columns would show whatever the later queries decoded
// there. Run under -race, it also checks the row sets' hand-offs.
func TestConcurrentQueriesEqualSerial(t *testing.T) {
	dir := t.TempDir()
	sw, err := archive.OpenSegmentDir(dir, archive.SegmentConfig{
		TelescopeSize: 4096, Origins: true, BlockBytes: 4 << 10, MaxSegmentScans: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	scans, origins := genScans(2400, 71)
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
	view := cat.View()
	defer view.Release()
	rd := openArc(t, writeArc(t, scans, origins, true))

	var queries []*Query
	for _, text := range []string{
		`{"group_by":["port"],"aggs":[{"op":"count"}],"limit":50}`,
		`{"aggs":[{"op":"quantile","field":"rate_pps","qs":[0.5,0.9,0.99]}]}`,
		`{"group_by":["year"],"aggs":[{"op":"count_distinct","field":"src"}],"order_by":"key"}`,
		`{"group_by":["tool","country"],"aggs":[{"op":"sum","field":"packets"}],"order_by":"key"}`,
		`{"limit":100000}`,
		`{"where":{"field":"two_phase","eq":true},"limit":100000}`,
	} {
		q, err := Parse([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	sources := []Source{ReaderSource{R: rd}, ViewSource{V: view}}
	encode := func(res *Result) string {
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	serial := make([]string, len(sources)*len(queries))
	for s, src := range sources {
		for i, q := range queries {
			res, err := Run(context.Background(), q, src)
			if err != nil {
				t.Fatal(err)
			}
			serial[s*len(queries)+i] = encode(res)
		}
	}

	const goroutines, rounds = 4, 3
	results := make([][]*Result, goroutines)
	errs := make(chan error, goroutines+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the compaction the held view must not notice
		defer wg.Done()
		comp := archive.NewCompactor(sw, archive.CompactorConfig{MinRun: 2})
		for {
			merged, err := comp.CompactOnce()
			if err != nil {
				errs <- err
				return
			}
			if merged == 0 {
				_, err := cat.Refresh()
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for k := range serial {
					k := (k + g + round) % len(serial) // every goroutine in its own order
					res, err := Run(context.Background(), queries[k%len(queries)], sources[k/len(queries)])
					if err != nil {
						errs <- err
						return
					}
					results[g] = append(results[g], res)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	compacted := cat.View()
	defer compacted.Release()
	if compacted.Len() >= view.Len() {
		t.Fatalf("compaction left %d segments of %d: nothing ran under the held view", compacted.Len(), view.Len())
	}
	for g, rs := range results {
		for j, res := range rs {
			round, k := j/len(serial), j%len(serial)
			k = (k + g + round) % len(serial)
			if got := encode(res); got != serial[k] {
				t.Fatalf("goroutine %d, query %d over source %d: the concurrent result differs from the serial one",
					g, k%len(queries), k/len(queries))
			}
		}
	}
}
