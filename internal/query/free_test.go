package query

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"github.com/synscan/synscan/internal/alloctest"
	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
)

// drainFree empties every free list, so that a test measures from lists that
// hold nothing an earlier test left, and returns the bytes they held and the
// largest buffer among them.
func drainFree() (held, largest int) {
	drainList(int32s, &held, &largest)
	drainList(keys, &held, &largest)
	drainList(states, &held, &largest)
	drainList(uint64s, &held, &largest)
	drainList(float64s, &held, &largest)
	return held, largest
}

func drainList[T any](l *freeList[T], held, largest *int) {
	for c, ch := range l.class {
		for ch != nil && len(ch) > 0 {
			b := <-ch
			if cap(b) != 1<<c {
				panic("a buffer in the wrong class")
			}
			size := classBytes[T](c)
			idle.Add(-int64(size))
			*held, *largest = *held+size, max(*largest, size)
		}
	}
}

// fanPorts gives scan i sixteen consecutive ports from (16·i) mod groups, so
// a store of n ≥ groups/16 scans holds every port below groups.
func fanPorts(scans []*core.Scan, groups int) []*core.Scan {
	out := make([]*core.Scan, len(scans))
	for i, sc := range scans {
		cp := *sc
		cp.Ports = make([]uint16, 16)
		for j := range cp.Ports {
			cp.Ports[j] = uint16((16*i + j) % groups)
		}
		out[i] = &cp
	}
	return out
}

// TestAllocBudgetQueryWarm is the enforced budget for what a warm aggregate
// allocates per group and per record: nothing. A group_by port count over
// 2^10 and over 2^16 ports (the second past the spill to the direct layout),
// a rate quantile and a count_distinct each answer over stores of N and 2N
// records in the same number of blocks with the same allocations, and the
// port count over 2^16 groups with those over 2^10: the table, the sets, the
// samples and Finish's ranking come back from the free lists, and what is
// left is the result. Reported under "query-warm", per record of the
// difference, and "query-warm-groups", per group of the difference.
func TestAllocBudgetQueryWarm(t *testing.T) {
	const n = 6000
	scans, origins := genScans(2*n, 83)
	drainFree()
	type store struct{ small, large *archive.Reader }
	open := func(scans []*core.Scan) store {
		s := store{
			small: openArc(t, writeArcBlocks(t, scans[:n], origins[:n], true, 8<<10)),
			large: openArc(t, writeArcBlocks(t, scans, origins, true, 16<<10)),
		}
		if d := s.large.NumBlocks() - s.small.NumBlocks(); d < -1 || d > 1 || s.small.NumBlocks() < 10 {
			t.Fatalf("%d and %d blocks: want about the same number, and many", s.small.NumBlocks(), s.large.NumBlocks())
		}
		return s
	}
	measure := func(text string, rd *archive.Reader) (allocs, bytes float64) {
		q, err := Parse([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		return alloctest.Measure(20, func() {
			if _, err := Run(context.Background(), q, ReaderSource{R: rd}); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain, ports10, ports16 := open(scans), open(fanPorts(scans, 1<<10)), open(fanPorts(scans, 1<<16))
	byPort := `{"group_by":["port"],"aggs":[{"op":"count"}],"limit":10}`
	perRecord := func(name, text string, s store) {
		smallAllocs, smallBytes := measure(text, s.small)
		largeAllocs, largeBytes := measure(text, s.large)
		perAllocs, perBytes := (largeAllocs-smallAllocs)/n, (largeBytes-smallBytes)/n
		t.Logf("%s: %d records: %.1f allocs, %.0f B a query; %d records: %.1f allocs, %.0f B",
			name, n, smallAllocs, smallBytes, 2*n, largeAllocs, largeBytes)
		if alloctest.Enforce(t, "query-warm/"+name, 0, perAllocs, perBytes) && perBytes > 1 {
			t.Errorf("%s: a query allocates %.1f B more per record it reads, want none", name, perBytes)
		}
	}
	perRecord("port-2^10", byPort, ports10)
	perRecord("port-2^16", byPort, ports16)
	perRecord("quantile", `{"aggs":[{"op":"quantile","field":"rate_pps","qs":[0.5,0.9,0.99]}]}`, plain)
	perRecord("count-distinct", `{"group_by":["year"],"aggs":[{"op":"count_distinct","field":"src"}],"order_by":"key"}`, plain)

	fewAllocs, fewBytes := measure(byPort, ports10.large)
	manyAllocs, manyBytes := measure(byPort, ports16.large)
	const groups = 1<<16 - 1<<10
	perAllocs, perBytes := (manyAllocs-fewAllocs)/groups, (manyBytes-fewBytes)/groups
	t.Logf("2^10 groups: %.1f allocs, %.0f B a query; 2^16 groups: %.1f allocs, %.0f B", fewAllocs, fewBytes, manyAllocs, manyBytes)
	if alloctest.Enforce(t, "query-warm-groups", 0, perAllocs, perBytes) && perBytes > 1 {
		t.Errorf("a query allocates %.1f B more per group it holds, want none", perBytes)
	}
}

// TestFreeIdleBound states what the free lists keep between queries: after
// a mix of shapes — every table layout, sets and samples, merged partials,
// a quantile over more samples than a kept buffer holds — the lists hold at
// most maxIdleBytes, what their counter says, in buffers of at most
// maxKeptBytes each; and a shape the mix did not run is served from them
// once it is warm, although the mix left them near their cap.
func TestFreeIdleBound(t *testing.T) {
	drainFree()
	scans, origins := genScans(3000, 89)
	sweeps, sweepOrigins, _ := sweepStream(97)
	src := SliceSource{Scans: scans, Origins: origins}
	for _, text := range []string{
		`{"group_by":["port"],"aggs":[{"op":"count"}],"limit":10}`,
		`{"group_by":["port"],"aggs":[{"op":"count"},{"op":"sum","field":"packets"},{"op":"quantile","field":"rate_pps","qs":[0.5]}]}`,
		`{"group_by":["asn"],"aggs":[{"op":"count_distinct","field":"src"}]}`,
		`{"group_by":["country","org","tool","year"],"aggs":[{"op":"sum","field":"rate_pps"}]}`,
		`{"group_by":["tool"],"aggs":[{"op":"top_k","field":"port","k":5},{"op":"approx_distinct","field":"src"}]}`,
	} {
		q, err := Parse([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), q, src, src, SliceSource{Scans: sweeps, Origins: sweepOrigins}); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d bytes idle after the mix", idle.Load())
	big := make([]*core.Scan, 1<<20)
	for i := range big {
		big[i] = scans[i%len(scans)]
	}
	// A shape whose state is larger than anything the mix left idle — a
	// quantile whose samples double up to 2 MiB or 4 MiB buffers — is
	// served from the lists by its third run: what it gives back displaces
	// the mix's idle buffers, largest first, rather than going to the
	// collector. Measured as query-warm measures a quantile, per record of
	// 300 000 over 150 000.
	shape, err := NewBuilder().Quantiles(FieldRate, 0.5, 0.9).Build()
	if err != nil {
		t.Fatal(err)
	}
	const fewRecords, manyRecords = 150_000, 300_000
	run := func(n int) func() {
		return func() {
			if _, err := Run(context.Background(), shape, SliceSource{Scans: big[:n]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(fewRecords)()
	run(manyRecords)()
	fewAllocs, fewBytes := alloctest.Measure(1, run(fewRecords))
	manyAllocs, manyBytes := alloctest.Measure(1, run(manyRecords))
	t.Logf("third runs: %d records %.0f allocs, %.0f B; %d records %.0f allocs, %.0f B",
		fewRecords, fewAllocs, fewBytes, manyRecords, manyAllocs, manyBytes)
	if per := (manyBytes - fewBytes) / (manyRecords - fewRecords); manyAllocs > fewAllocs || per > 1 {
		t.Errorf("a new shape's third run allocates %.0f times and %.1f B a record more at %d records: want it served from the lists",
			manyAllocs-fewAllocs, per, manyRecords)
	}

	// 2^20 samples, 8 MiB: more than a kept buffer.
	q, err := NewBuilder().Quantiles(FieldRate, 0.5).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), q, SliceSource{Scans: big}); err != nil {
		t.Fatal(err)
	}

	counted := idle.Load()
	held, largest := drainFree()
	t.Logf("%d bytes idle, the largest buffer %d", held, largest)
	if int64(held) != counted {
		t.Errorf("the lists hold %d bytes and their counter says %d", held, counted)
	}
	if held == 0 || held > maxIdleBytes {
		t.Errorf("the lists hold %d bytes, want some and at most %d", held, maxIdleBytes)
	}
	if largest > maxKeptBytes {
		t.Errorf("a %d-byte buffer was kept, over the %d cap", largest, maxKeptBytes)
	}
}

// bytesOf is b's memory, to its capacity.
func bytesOf[T any](b []T) []byte {
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b))), cap(b)*int(unsafe.Sizeof(zero)))
}

// poisoned reports whether b reads as give left it under poisonFree.
func poisoned[T any](b []T) bool {
	if st, ok := any(b).([]aggState); ok {
		const n = poisonByte * 0x0101010101010101
		for _, s := range st[:cap(st)] {
			if s.n != n || math.Float64bits(s.f) != n || s.ext != nil {
				return false
			}
		}
		return true
	}
	for _, c := range bytesOf(b) {
		if c != poisonByte {
			return false
		}
	}
	return true
}

// TestSpentExecutorTouchesNothing: Finish gives an executor's buffers back
// and leaves it spent. Under poisonFree, Observe, Merge in both directions
// and a second Finish then leave every buffer it gave back as give left it,
// the second Finish and a total that merged the spent executor fail, and
// the result Finish returned first is unchanged.
func TestSpentExecutorTouchesNothing(t *testing.T) {
	poisonFree.Store(true)
	defer poisonFree.Store(false)
	drainFree()
	// Every port, from sources and at rates that differ scan by scan.
	all := make([]uint16, 1<<16)
	for p := range all {
		all[p] = uint16(p)
	}
	var scans []*core.Scan
	for i := 0; i < 6; i++ {
		scans = append(scans, &core.Scan{Src: uint32(i % 4), RatePPS: float64(i), Ports: all})
	}
	origins := make([]enrich.Origin, len(scans))
	q, err := NewBuilder().GroupBy(FieldPort).Count().CountDistinct(FieldSrc).Quantiles(FieldRate, 0.5).Limit(20).Build()
	if err != nil {
		t.Fatal(err)
	}
	feed := func(e *Executor) {
		for i, sc := range scans {
			e.Observe(sc, &origins[i])
		}
	}
	e := NewExecutor(q)
	feed(e)
	if e.present == nil {
		t.Fatalf("%d groups and not spilled", e.groups)
	}
	// What Finish will give back, held here past it.
	aggs, present := e.aggs, e.present
	held := map[string]func() bool{
		"states":  func() bool { return poisoned(aggs) },
		"present": func() bool { return poisoned(present) },
	}
	n := len(q.Aggs) // count, count_distinct, quantile
	for g := 0; g < 1<<16; g += 997 {
		x := aggs[g*n+1].ext
		if x == nil {
			continue
		}
		slots, samples := x.set.slots, aggs[g*n+2].ext.samples
		held[fmt.Sprintf("set %d", g)] = func() bool { return poisoned(slots) }
		held[fmt.Sprintf("samples %d", g)] = func() bool { return poisoned(samples) }
	}
	// Executors to merge with, fed first: what they take from the free lists
	// after the Finish would be e's buffers, theirs to write.
	other, total := NewExecutor(q), NewExecutor(q)
	feed(other)
	feed(total)
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for name, ok := range held {
			if !ok() {
				t.Errorf("%s: the %s buffer Finish gave back was written", when, name)
			}
		}
	}
	check("after Finish")
	matched := e.matched
	feed(e)
	check("after Observe")
	if e.matched != matched {
		t.Errorf("a spent executor counted %d more scans", e.matched-matched)
	}
	e.Merge(other)
	check("after Merge into it")
	total.Merge(e)
	check("after Merge of it")
	if _, err := total.Finish(); err == nil {
		t.Error("a total that merged a spent executor finished")
	}
	if _, err := e.Finish(); err == nil {
		t.Error("a second Finish succeeded")
	}
	check("after a second Finish")
	if got, _ := json.Marshal(res); string(got) != string(want) {
		t.Error("the result changed after its executor was spent")
	}
}

// TestKeptResultSurvivesChurn: a Result owns what it holds, and a partial
// owns its state until it is merged or finished. Under poisonFree, Results
// and unfinished partials are kept while other queries of every shape —
// spilling, merging, finishing — churn the free lists; the Results still
// encode to the same bytes, and the partials, merged and finished after the
// churn, to the bytes of the same queries run straight through.
func TestKeptResultSurvivesChurn(t *testing.T) {
	poisonFree.Store(true)
	defer poisonFree.Store(false)
	scans, origins := genScans(2000, 103)
	sweeps, sweepOrigins, _ := sweepStream(107)
	srcs := []Source{
		SliceSource{Scans: scans[:1000], Origins: origins[:1000]},
		SliceSource{Scans: sweeps, Origins: sweepOrigins},
		SliceSource{Scans: scans[1000:], Origins: origins[1000:]},
	}
	texts := []string{
		`{"group_by":["port"],"aggs":[{"op":"count"},{"op":"quantile","field":"rate_pps","qs":[0.1,0.5]}],"limit":50}`,
		`{"group_by":["year"],"aggs":[{"op":"count_distinct","field":"src"},{"op":"top_k","field":"port","k":3}],"order_by":"key"}`,
		`{"group_by":["country","tool"],"aggs":[{"op":"sum","field":"packets"},{"op":"sum","field":"rate_pps"}],"order_by":"key"}`,
		`{"aggs":[{"op":"quantile","field":"rate_pps","qs":[0.5,0.9,0.99]},{"op":"count_distinct","field":"port"}]}`,
	}
	encode := func(v any) string {
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	var qs []*Query
	var kept []*Result
	var want []string
	for _, text := range texts {
		q, err := Parse([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), q, srcs...)
		if err != nil {
			t.Fatal(err)
		}
		qs, kept, want = append(qs, q), append(kept, res), append(want, encode(res))
	}
	// Partials of every query, observed and held unfinished.
	parts := make([][]*Executor, len(qs))
	for i, q := range qs {
		for _, src := range srcs {
			e := NewExecutor(q)
			if err := src.Query(context.Background(), q.Predicate(), e.Observe); err != nil {
				t.Fatal(err)
			}
			parts[i] = append(parts[i], e)
		}
	}
	for round := 0; round < 3; round++ {
		for _, q := range qs {
			if _, err := Run(context.Background(), q, append([]Source{srcs[round]}, srcs...)...); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, res := range kept {
		if got := encode(res); got != want[i] {
			t.Errorf("%s: a kept result changed under churn", texts[i])
		}
	}
	for i, ps := range parts {
		total := ps[0]
		for _, p := range ps[1:] {
			total.Merge(p)
		}
		res, err := total.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if got := encode(res); got != want[i] {
			t.Errorf("%s: kept partials, merged after the churn, give\n%s\nwant\n%s", texts[i], got, want[i])
		}
		if !reflect.DeepEqual(res, kept[i]) {
			t.Errorf("%s: kept partials and the straight run differ", texts[i])
		}
	}
}
