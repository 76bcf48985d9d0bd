package query

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/synscan/synscan/internal/alloctest"
	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/stats"
)

// naiveGroup is one group of the reference executor: rendered coordinates
// and, per aggregate, everything needed to finish it.
type naiveGroup struct {
	key     []KeyVal
	count   []uint64
	sumI    []uint64
	sumF    []float64
	set     []map[uint64]bool
	samples [][]float64
}

// naiveRun is the reference the packed-key executor is held to: groups in a
// map keyed by the coordinates printed into a string, one heap group each,
// every row rendered, a stable sort over all of them, then the limit. It
// supports the aggregates whose state is order-independent or summed in
// stream order (count, sum, count_distinct, quantile).
func naiveRun(q *Query, scans []*core.Scan, origins []enrich.Origin) *Result {
	groups := map[string]*naiveGroup{}
	var order []string
	res := &Result{}
	for si, sc := range scans {
		res.Matched++
		o := &origins[si]
		// One row per port when grouping by port, else one row.
		rows, split := [][]KeyVal{nil}, 1
		for _, f := range q.GroupBy {
			if f == FieldPort {
				split = len(sc.Ports)
				var next [][]KeyVal
				for _, row := range rows {
					for _, p := range sc.Ports {
						kv := KeyVal{Field: f, Num: uint64(p), Str: fmt.Sprint(p)}
						next = append(next, append(append([]KeyVal(nil), row...), kv))
					}
				}
				rows = next
				continue
			}
			var kv KeyVal
			switch f {
			case FieldYear:
				y := uint64(archive.YearOf(sc.Start))
				kv = KeyVal{Field: f, Num: y, Str: fmt.Sprint(y)}
			case FieldTool:
				kv = KeyVal{Field: f, Num: uint64(sc.Tool), Str: sc.Tool.String()}
			case FieldQualified:
				kv = KeyVal{Field: f, Num: b2u(sc.Qualified), Str: fmt.Sprint(sc.Qualified)}
			case FieldTwoPhase:
				kv = KeyVal{Field: f, Num: b2u(sc.TwoPhase), Str: fmt.Sprint(sc.TwoPhase)}
			case FieldISN:
				kv = KeyVal{Field: f, Num: uint64(sc.ISN), Str: sc.ISN.String()}
			case FieldCountry:
				kv = KeyVal{Field: f, Str: o.Country}
			case FieldOrg:
				kv = KeyVal{Field: f, Str: o.OrgName}
			case FieldASN:
				kv = KeyVal{Field: f, Num: uint64(o.ASN), Str: fmt.Sprint(o.ASN)}
			case FieldType:
				kv = KeyVal{Field: f, Num: uint64(o.Type), Str: o.Type.String()}
			}
			for i := range rows {
				rows[i] = append(rows[i], kv)
			}
		}
		for _, row := range rows {
			var sb strings.Builder
			for _, kv := range row {
				fmt.Fprintf(&sb, "%d/%q|", kv.Num, kv.Str)
			}
			g, ok := groups[sb.String()]
			if !ok {
				n := len(q.Aggs)
				g = &naiveGroup{key: row, count: make([]uint64, n), sumI: make([]uint64, n),
					sumF: make([]float64, n), set: make([]map[uint64]bool, n), samples: make([][]float64, n)}
				groups[sb.String()] = g
				order = append(order, sb.String())
			}
			for i, a := range q.Aggs {
				switch a.Op {
				case OpCount:
					g.count[i]++
				case OpSum:
					if a.Field == FieldPackets {
						g.sumI[i] += sc.Packets / uint64(split)
					} else {
						g.sumF[i] += sc.RatePPS
					}
				case OpCountDistinct:
					if g.set[i] == nil {
						g.set[i] = map[uint64]bool{}
					}
					g.set[i][uint64(sc.Src)] = true
				case OpQuantile:
					g.samples[i] = append(g.samples[i], sc.RatePPS)
				}
			}
		}
	}
	for _, k := range order {
		g := groups[k]
		row := Row{Key: g.key, Aggs: make([]AggValue, len(q.Aggs))}
		if row.Key == nil {
			row.Key = []KeyVal{}
		}
		for i, a := range q.Aggs {
			v := AggValue{Op: a.Op, Field: a.Field}
			switch a.Op {
			case OpCount:
				v.Count = g.count[i]
			case OpSum:
				if a.Field == FieldPackets {
					v.Int, v.IsInt = g.sumI[i], true
				} else {
					v.Float = g.sumF[i]
				}
			case OpCountDistinct:
				v.Count = uint64(len(g.set[i]))
			case OpQuantile:
				sort.Float64s(g.samples[i])
				v.Qs = a.Qs
				for _, qq := range a.Qs {
					v.Vals = append(v.Vals, stats.QuantileSorted(g.samples[i], qq))
				}
			}
			row.Aggs[i] = v
		}
		res.Rows = append(res.Rows, row)
	}
	scalarOf := func(v AggValue) float64 {
		switch {
		case v.Op == OpSum && v.IsInt:
			return float64(v.Int)
		case v.Op == OpSum:
			return v.Float
		case v.Op == OpQuantile:
			return v.Vals[0]
		}
		return float64(v.Count)
	}
	keyLess := func(a, b []KeyVal) bool {
		for i := range a {
			if a[i].Field.stringValued() {
				if a[i].Str != b[i].Str {
					return a[i].Str < b[i].Str
				}
			} else if a[i].Num != b[i].Num {
				return a[i].Num < b[i].Num
			}
		}
		return false
	}
	sort.SliceStable(res.Rows, func(i, j int) bool {
		if q.Order != OrderKey {
			if a, b := scalarOf(res.Rows[i].Aggs[0]), scalarOf(res.Rows[j].Aggs[0]); a != b {
				return a > b
			}
		}
		return keyLess(res.Rows[i].Key, res.Rows[j].Key)
	})
	res.TotalRows = len(res.Rows)
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestPackedKeysMatchNaive holds the packed-key executor — fixed-size keys,
// string dictionary, hash table of group numbers, flat states, index sort,
// rows rendered after the limit — to naiveRun over random queries: one to
// four group-by dimensions mixing numeric and string fields and the port
// fan-out, both orderings, limits that cut through runs of tied first
// aggregates, and the same stream fed through one executor and through
// several merged partials whose dictionaries numbered the strings
// differently.
func TestPackedKeysMatchNaive(t *testing.T) {
	scans, origins := genScans(1500, 61)
	pool := []Field{FieldYear, FieldTool, FieldPort, FieldQualified, FieldTwoPhase,
		FieldISN, FieldCountry, FieldOrg, FieldASN, FieldType}
	r := rng.New(62)
	for round := 0; round < 150; round++ {
		b := NewBuilder()
		for _, i := range r.Perm(len(pool))[:1+r.Intn(maxGroupBy)] {
			b.GroupBy(pool[i])
		}
		first := r.Intn(5)
		switch first {
		case 0:
			b.Count()
		case 1:
			b.Sum(FieldPackets)
		case 2:
			b.Sum(FieldRate)
		case 3:
			b.CountDistinct(FieldSrc)
		case 4:
			b.Quantiles(FieldRate, 0.5, 0.9)
		}
		b.Count().Sum(FieldPackets)
		// A float sum is not associative: merged partials may differ from the
		// sequential reference in the last bits, which must not decide a
		// row's rank.
		if r.Intn(2) == 0 || first == 2 {
			b.OrderByKey()
		}
		b.Limit([]int{0, 1, 2, 5, 50}[r.Intn(5)])
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("round %d: %s", round, q.Key())
		want := naiveRun(q, scans, origins)

		feed := func(e *Executor, from, to int) {
			for i := from; i < to; i++ {
				e.Observe(scans[i], &origins[i])
			}
		}
		single := NewExecutor(q)
		feed(single, 0, len(scans))
		got, err := single.Finish()
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, want)

		cuts := []int{0, 1 + r.Intn(400), 500 + r.Intn(400), 1000 + r.Intn(400), len(scans)}
		var total *Executor
		for i := 1; i < len(cuts); i++ {
			part := NewExecutor(q)
			feed(part, cuts[i-1], cuts[i])
			if total == nil {
				total = part
			} else {
				total.Merge(part)
			}
		}
		merged, err := total.Finish()
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, merged, want)
	}
}

// TestLimitCutsTies: when the limit falls inside a run of equal first
// aggregates, the survivors are the ones with the smallest keys, and
// TotalRows still counts every group.
func TestLimitCutsTies(t *testing.T) {
	var scans []*core.Scan
	for p := 0; p < 40; p++ { // port p is scanned p%4+1 times: ten-way ties
		for k := 0; k <= p%4; k++ {
			scans = append(scans, &core.Scan{Src: uint32(p*10 + k), Ports: []uint16{uint16(1000 - p)}})
		}
	}
	q, err := NewBuilder().GroupBy(FieldPort).Count().Limit(13).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), q, SliceSource{Scans: scans})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRows != 40 || len(res.Rows) != 13 {
		t.Fatalf("%d rows of %d, want 13 of 40", len(res.Rows), res.TotalRows)
	}
	for i, row := range res.Rows {
		wantCount := uint64(4)
		if i >= 10 {
			wantCount = 3
		}
		if row.Aggs[0].Count != wantCount {
			t.Fatalf("row %d: count %d, want %d", i, row.Aggs[0].Count, wantCount)
		}
		if i > 0 && i != 10 && row.Key[0].Num <= res.Rows[i-1].Key[0].Num {
			t.Fatalf("row %d: port %d after %d within a tie", i, row.Key[0].Num, res.Rows[i-1].Key[0].Num)
		}
	}
	// The three survivors of the count-3 tie are its three smallest ports.
	if got := res.Rows[10].Key[0].Num; got != 1000-38 {
		t.Fatalf("first port of the cut tie is %d, want %d", got, 1000-38)
	}
}

// TestAllocBudgetObserve is the enforced budget for the aggregation hot path:
// observing a scan into groups that already exist allocates nothing, for a
// numeric group-by that includes the port fan-out — no key string, no
// coordinate rows, no per-group heap object. Reported under "query-observe".
func TestAllocBudgetObserve(t *testing.T) {
	scans, origins := genScans(2000, 63)
	q, err := NewBuilder().GroupBy(FieldPort).GroupBy(FieldTool).GroupBy(FieldYear).
		Count().Sum(FieldPackets).Sum(FieldRate).Build()
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(q)
	observeAll := func() {
		for i, sc := range scans {
			e.Observe(sc, &origins[i])
		}
	}
	observeAll() // open every group
	alloctest.Check(t, "query-observe", 0, observeAll)
	if _, err := e.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocBudgetQueryPerRecord is the enforced budget for what an aggregate
// over an archive allocates per record it reads: nothing. Two stores of N and
// 2N records in the same number of blocks (the second's blocks twice the
// size) answer a warm tool × year aggregate with the same allocations and the
// same bytes, so a query costs O(groups + blocks): rows are lent to the
// executor from recycled columns, not kept in memory of their own (the slabs
// before them cost ≈ 167 B a record). Reported under "query-per-record", per
// record of the difference.
func TestAllocBudgetQueryPerRecord(t *testing.T) {
	const n = 6000
	scans, origins := genScans(2*n, 67)
	q, err := Parse([]byte(`{"group_by":["tool","year"],"aggs":[{"op":"count"},{"op":"sum","field":"packets"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	measure := func(records, blockBytes int) (rd *archive.Reader, allocs, bytes float64) {
		rd = openArc(t, writeArcBlocks(t, scans[:records], origins[:records], true, blockBytes))
		allocs, bytes = alloctest.Measure(20, func() {
			if _, err := Run(context.Background(), q, ReaderSource{R: rd}); err != nil {
				t.Fatal(err)
			}
		})
		return rd, allocs, bytes
	}
	small, smallAllocs, smallBytes := measure(n, 8<<10)
	large, largeAllocs, largeBytes := measure(2*n, 16<<10)
	if d := large.NumBlocks() - small.NumBlocks(); d < -1 || d > 1 || small.NumBlocks() < 10 {
		t.Fatalf("%d and %d blocks: want about the same number, and many", small.NumBlocks(), large.NumBlocks())
	}
	perAllocs, perBytes := (largeAllocs-smallAllocs)/n, (largeBytes-smallBytes)/n
	t.Logf("%d records: %.1f allocs, %.0f B a query; %d records: %.1f allocs, %.0f B",
		n, smallAllocs, smallBytes, 2*n, largeAllocs, largeBytes)
	if alloctest.Enforce(t, "query-per-record", 0, perAllocs, perBytes) && perBytes > 1 {
		t.Errorf("a query allocates %.1f B more per record it reads, want none", perBytes)
	}
}

// TestPredicateFields: the compiled predicate projects exactly the strips the
// query reads, wherever it reads them.
func TestPredicateFields(t *testing.T) {
	const (
		start, duration, src, packets = archive.FieldStart, archive.FieldDuration, archive.FieldSrc, archive.FieldPackets
		dsts, ports, tool, rate       = archive.FieldDsts, archive.FieldPorts, archive.FieldTool, archive.FieldRate
		coverage, phase, country, asn = archive.FieldCoverage, archive.FieldPhase, archive.FieldCountry, archive.FieldASN
		org, all                      = archive.FieldOrg, archive.AllFields
	)
	cases := []struct {
		query string
		want  archive.Fields
	}{
		{`{}`, all}, // select mode returns the scans themselves
		{`{"where":{"field":"year","in":[2019]},"limit":5}`, all},
		{`{"aggs":[{"op":"count"}]}`, 0},
		{`{"aggs":[{"op":"quantile","field":"rate_pps","qs":[0.5]}]}`, rate},
		{`{"group_by":["tool","year"],"aggs":[{"op":"sum","field":"packets"}]}`, tool | start | packets},
		{`{"group_by":["year"],"aggs":[{"op":"count_distinct","field":"src"}]}`, start | src},
		{`{"group_by":["port"],"aggs":[{"op":"count"}]}`, ports},
		{`{"aggs":[{"op":"sum","field":"nports"}]}`, ports},
		{`{"group_by":["tool"],"aggs":[{"op":"top_k","field":"port","k":3}]}`, tool | ports},
		{`{"where":{"field":"port","in":[443]},"aggs":[{"op":"count"}]}`, ports},
		{`{"where":{"not":{"field":"nports","max":3}},"aggs":[{"op":"count"}]}`, ports},
		{`{"where":{"field":"time","min_ns":1},"group_by":["qualified"],"aggs":[{"op":"sum","field":"dsts"}]}`, start | tool | dsts},
		{`{"where":{"field":"duration_s","min":1},"aggs":[{"op":"sum","field":"coverage"}]}`, duration | coverage},
		{`{"where":{"field":"two_phase","eq":true},"group_by":["isn"],"aggs":[{"op":"sum","field":"linked_dsts"}]}`, phase},
		{`{"aggs":[{"op":"sum","field":"handshake_packets"},{"op":"sum","field":"payload_bytes"}]}`, phase},
		{`{"group_by":["country"],"aggs":[{"op":"count"}]}`, country},
		{`{"aggs":[{"op":"count_distinct","field":"asn"}]}`, asn},
		{`{"where":{"or":[{"field":"tool","eq":"ZMap"},{"field":"type","in":["Institutional"]}]},"aggs":[{"op":"count"}]}`, tool | asn},
		{`{"where":{"field":"org","in":["x"]},"group_by":["port"],"aggs":[{"op":"count"}]}`, ports | org},
	}
	read := archive.Fields(0)
	for _, c := range cases {
		q, err := Parse([]byte(c.query))
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if got := q.Predicate().Fields(); got != c.want {
			t.Errorf("%s: projects {%v}, want {%v}", c.query, got, c.want)
		}
		if c.want != all {
			read |= c.want
		}
	}
	// Only the payload prefix has no field: select mode is what returns it.
	if read != all&^archive.FieldPayload {
		t.Errorf("the aggregate cases read {%v} between them, want every strip but the payload", read)
	}
}

// TestAggregateInflatesItsStrips counts what the projection saves: a
// full-history quantile over one attribute — the benchmark's second full-scan
// query — reads every block and inflates at most a quarter of the bytes the
// store's blocks inflate to, the rate strip's eight bytes of each record;
// select mode inflates all of them.
func TestAggregateInflatesItsStrips(t *testing.T) {
	scans, origins := genScans(3000, 66)
	rd := openArc(t, writeArc(t, scans, origins, true))
	reg := obs.NewRegistry()
	rd.SetMetrics(reg)
	var store uint64
	for _, z := range rd.Blocks() {
		store += uint64(z.RawLen)
	}
	inflated := func(text string) uint64 {
		q, err := Parse([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		before := reg.Snapshot()
		if _, err := Run(context.Background(), q, ReaderSource{R: rd}); err != nil {
			t.Fatal(err)
		}
		after := reg.Snapshot()
		if n := after.Counter("archive.blocks.scanned") - before.Counter("archive.blocks.scanned"); n != uint64(rd.NumBlocks()) {
			t.Fatalf("%s read %d of %d blocks", text, n, rd.NumBlocks())
		}
		return after.Counter("archive.bytes.decompressed") - before.Counter("archive.bytes.decompressed")
	}
	if n := inflated(`{"aggs":[{"op":"quantile","field":"rate_pps","qs":[0.5,0.9,0.99]}]}`); n != 8*uint64(len(scans)) || 4*n > store {
		t.Errorf("the rate quantile inflates %d bytes of the store's %d, want %d and at most a quarter", n, store, 8*len(scans))
	}
	if n := inflated(`{"limit":1}`); n != store {
		t.Errorf("select mode inflates %d bytes of the store's %d", n, store)
	}
}

// fullDecode is a predicate with its projection taken away.
type fullDecode struct{ archive.Predicate }

func (fullDecode) Fields() archive.Fields { return archive.AllFields }

// TestProjectionKeepsResults: every random query answers byte for byte the
// same whether the reader decodes only what the predicate projects or every
// field, and both agree with the in-memory source.
func TestProjectionKeepsResults(t *testing.T) {
	scans, origins := genScans(1200, 64)
	rd := openArc(t, writeArc(t, scans, origins, true))
	r := rng.New(65)
	for round := 0; round < 60; round++ {
		q := randQuery(r, scans, origins, true)
		run := func(p archive.Predicate) []byte {
			e := NewExecutor(q)
			if err := rd.Query(context.Background(), p, e.Observe); err != nil {
				t.Fatal(err)
			}
			res, err := e.Finish()
			if err != nil {
				t.Fatal(err)
			}
			out, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		projected, full := run(q.Predicate()), run(fullDecode{q.Predicate()})
		if string(projected) != string(full) {
			t.Fatalf("round %d (%s, fields {%v}): projected decode changed the result", round, q.Key(), q.Predicate().Fields())
		}
		mem, err := Run(context.Background(), q, SliceSource{Scans: scans, Origins: origins})
		if err != nil {
			t.Fatal(err)
		}
		if out, _ := json.Marshal(mem); string(out) != string(projected) {
			t.Fatalf("round %d (%s): archive and in-memory results differ", round, q.Key())
		}
	}
}

// sweepStream is a stream in which a port grouping of one aggregate spills:
// units of small scans (one to eight ports) between sorted sweeps of 9 000
// to 17 000 ports, about 31 000 ports between them with gaps (odd ports
// below 4 000, most of 24 000–30 000), so that a group's rank is not its
// port. The first sweep alone holds past 2^14 groups; the others only once
// merged. Each unit is a [from, to) range of the stream, in order.
func sweepStream(seed uint64) (scans []*core.Scan, origins []enrich.Origin, units [][2]int) {
	r := rng.New(seed)
	span := func(from, to, step int) []uint16 {
		var ps []uint16
		for p := from; p < to; p += step {
			ps = append(ps, uint16(p))
		}
		return ps
	}
	sweeps := [][]uint16{span(4000, 21000, 1), span(30000, 39000, 1), span(0, 18000, 2), span(12000, 24000, 1)}
	scan := func(ports []uint16) {
		scans = append(scans, &core.Scan{
			Src:     r.Uint32() % 4096, // repeats, and now and then 0
			Packets: uint64(r.Uint32() % 100000),
			RatePPS: float64(r.Uint32()%1000) / 8,
			Ports:   ports,
		})
		origins = append(origins, enrich.Origin{})
	}
	for _, sweep := range sweeps {
		from := len(scans)
		for i := 0; i < 40; i++ {
			ports := span(int(r.Uint32()%24000), 24000, 1+int(r.Uint32()%3000))
			scan(ports[:min(len(ports), 1+r.Intn(8))])
		}
		units = append(units, [2]int{from, len(scans)})
		scan(sweep)
		units = append(units, [2]int{len(scans) - 1, len(scans)})
	}
	return scans, origins, units
}

// TestSpillMatchesNaive holds the port grouping to naiveRun across the
// spill from the hashed layout to the port-addressed one past 2^14 groups
// (TestSpillPoints covers the spill past 2^15 that more aggregates take):
// every aggregate the reference knows, both orderings, limits that cut
// through long runs of tied counts, the whole stream through one executor,
// and the stream cut into partials merged in stream order from the front
// (each partial into the total so far) and from the back (each partial
// taking in the total of everything after it) — so that Merge meets hashed
// into direct (the receiver spilling mid-merge), direct into hashed and
// direct into direct, each with the direct side first in the stream and
// second. At most two executors are live at a time, and under poisonFree
// every buffer a merge or a finish gives back is scribbled.
func TestSpillMatchesNaive(t *testing.T) {
	poisonFree.Store(true)
	defer poisonFree.Store(false)
	scans, origins, units := sweepStream(71)
	aggSets := []func(b *Builder){
		func(b *Builder) { b.Count() },
		func(b *Builder) { b.CountDistinct(FieldSrc) },
		func(b *Builder) { b.Sum(FieldPackets) },
		func(b *Builder) { b.Quantiles(FieldRate, 0.5, 0.9) },
		func(b *Builder) { b.Sum(FieldRate) },
	}
	kind := func(e *Executor) string {
		if e.present != nil {
			return "direct"
		}
		return "hashed"
	}
	seen := map[string]bool{}
	r := rng.New(72)
	for round := 0; round < 7; round++ {
		b := NewBuilder().GroupBy(FieldPort)
		set := round % len(aggSets)
		aggSets[set](b)
		// A float sum is not associative: merged partials may differ from
		// the sequential reference in the last bits, which must not decide a
		// row's rank.
		if round >= len(aggSets) || set == len(aggSets)-1 {
			b.OrderByKey()
		}
		b.Limit([]int{0, 1, 10, 333, 20000}[r.Intn(5)])
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		want := naiveRun(q, scans, origins)

		single := NewExecutor(q)
		for i, sc := range scans {
			single.Observe(sc, &origins[i])
		}
		if kind(single) != "direct" {
			t.Fatalf("%s: %d groups and not spilled", q.Key(), single.groups)
		}
		got, err := single.Finish()
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, want)

		part := func(u [2]int) *Executor {
			e := NewExecutor(q)
			for j := u[0]; j < u[1]; j++ {
				e.Observe(scans[j], &origins[j])
			}
			return e
		}
		merge := func(into, from *Executor) {
			seen[kind(into)+"←"+kind(from)] = true
			into.Merge(from)
		}
		check := func(total *Executor) {
			merged, err := total.Finish()
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, merged, want)
		}
		front := part(units[0])
		for _, u := range units[1:] {
			merge(front, part(u))
		}
		check(front)
		back := part(units[len(units)-1])
		for i := len(units) - 2; i >= 0; i-- {
			e := part(units[i])
			merge(e, back)
			back = e
		}
		check(back)
	}
	for _, pair := range []string{"hashed←direct", "direct←hashed", "direct←direct"} {
		if !seen[pair] {
			t.Errorf("no merge of %s", pair)
		}
	}
}

// TestSpillPoints pins where a port grouping leaves the hashed layout: at
// the doubling past 2^14 groups with one aggregate, past 2^15 with more, and
// never for a field wider than 16 bits or a grouping of two fields — and
// every group keeps its states through it. Of the other 16-bit fields, none
// has values enough to get there.
func TestSpillPoints(t *testing.T) {
	if stateBytes != 24 || hashedGroupBytes != 24 {
		t.Fatalf("aggState is %d bytes and a hashed group %d: the sizes in the comments are stale", stateBytes, hashedGroupBytes)
	}
	for n, want := range map[int]int{1: 1 << 15, 2: 1 << 16, 16: 1 << 16} {
		if got := spillSlots(n); got != want {
			t.Errorf("%d aggregates: spill at %d slots, want %d", n, got, want)
		}
	}
	for _, f := range Fields() {
		want := f == FieldYear || f == FieldTool || f == FieldPort || f == FieldQualified ||
			f == FieldTwoPhase || f == FieldISN || f == FieldType
		if f.can(capGroup) && f.def().fits16() != want {
			t.Errorf("%s: fits16 = %v", f, !want)
		}
	}
	sc := core.Scan{Ports: []uint16{0}}
	for _, c := range []struct {
		fields []Field
		n      int
		spill  int // groups at which the table is direct, 0 = never
	}{
		{[]Field{FieldPort}, 1, 1<<14 + 1},
		{[]Field{FieldPort}, 2, 1<<15 + 1},
		{[]Field{FieldASN}, 1, 0},
		{[]Field{FieldPort, FieldTool}, 1, 0},
	} {
		b := NewBuilder().Count()
		if c.n == 2 {
			b.Sum(FieldPackets)
		}
		for _, f := range c.fields {
			b.GroupBy(f)
		}
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		e := NewExecutor(q)
		o := enrich.Origin{}
		for v := 0; v < 1<<16; v++ {
			sc.Ports[0], sc.Packets, o.ASN = uint16(v), uint64(v), uint32(v)
			e.Observe(&sc, &o)
			if direct := e.present != nil; direct != (c.spill > 0 && e.groups >= c.spill) {
				t.Fatalf("%v, %d aggregates: direct = %v at %d groups", c.fields, c.n, direct, e.groups)
			}
		}
		res, err := e.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalRows != 1<<16 {
			t.Fatalf("%v: %d groups, want %d", c.fields, res.TotalRows, 1<<16)
		}
		for i, row := range res.Rows { // counts tie: by key, the value observed
			if row.Key[0].Num != uint64(i) || row.Aggs[0].Count != 1 || c.n == 2 && row.Aggs[1].Int != uint64(i) {
				t.Fatalf("%v, %d aggregates: row %d is %+v", c.fields, c.n, i, row)
			}
		}
	}
}

// TestAllocBudgetObserveDirect is the enforced budget for the port-addressed
// layout: once a port grouping has spilled, observing sweeps into groups that
// already exist allocates nothing. Reported under "query-observe-direct".
func TestAllocBudgetObserveDirect(t *testing.T) {
	scans, origins, _ := sweepStream(73)
	q, err := NewBuilder().GroupBy(FieldPort).Count().Build()
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(q)
	observeAll := func() {
		for i, sc := range scans {
			e.Observe(sc, &origins[i])
		}
	}
	observeAll() // open every group
	if e.present == nil {
		t.Fatalf("%d groups and not spilled", e.groups)
	}
	alloctest.Check(t, "query-observe-direct", 0, observeAll)
	if _, err := e.Finish(); err != nil {
		t.Fatal(err)
	}
}

// has reports whether s holds k, probing as add does.
func (s *distinctSet) has(k uint64) bool {
	if k == 0 {
		return s.zero
	}
	if s.slots == nil {
		return false
	}
	mask := len(s.slots) - 1
	for i := s.home(k); s.slots[i] != 0; i = (i + 1) & mask {
		if s.slots[i] == k {
			return true
		}
	}
	return false
}

// probes is how many slots add reads to reach k, which s holds.
func (s *distinctSet) probes(k uint64) int {
	mask := len(s.slots) - 1
	n := 1
	for i := s.home(k); s.slots[i] != k; i = (i + 1) & mask {
		n++
	}
	return n
}

// checkSet compares s with its oracle: the count, every oracle key found,
// every occupied slot an oracle key with no empty slot between it and its
// home, and the load at most ¾.
func checkSet(t *testing.T, s *distinctSet, want map[uint64]struct{}) {
	t.Helper()
	if s.len() != len(want) {
		t.Fatalf("%d keys, oracle %d", s.len(), len(want))
	}
	if 4*s.n > 3*len(s.slots) {
		t.Fatalf("%d keys in %d slots: over ¾ full", s.n, len(s.slots))
	}
	mask := len(s.slots) - 1
	live := 0
	for i, k := range s.slots {
		if k == 0 {
			continue
		}
		live++
		if _, ok := want[k]; !ok {
			t.Fatalf("slot %d holds %#x, which was never added", i, k)
		}
		for j := s.home(k); j != i; j = (j + 1) & mask {
			if s.slots[j] == 0 {
				t.Fatalf("%#x sits at %d behind an empty slot %d", k, i, j)
			}
		}
	}
	if live != s.n {
		t.Fatalf("%d occupied slots, n = %d", live, s.n)
	}
	for k := range want {
		if !s.has(k) {
			t.Fatalf("%#x added and not found", k)
		}
	}
}

// TestDistinctSetMatchesMap: seeded inserts into the open-addressed set and
// into a map[uint64]struct{} oracle — duplicates from a narrow universe, the
// key 0, the widest keys, a wide random spread — checked after every growth
// step up to 2^17 slots, then unions of two such sets, in both directions,
// against the union of their oracles. About half the sets hash under a drawn
// multiplier, so unions meet sets under different ones.
func TestDistinctSetMatchesMap(t *testing.T) {
	build := func(r *rng.Rand, n int) (*distinctSet, map[uint64]struct{}) {
		s, want := &distinctSet{}, map[uint64]struct{}{}
		if r.Intn(2) == 0 {
			s.mult = setMultiplier(r.Uint64) // a set that has moved off the Fibonacci constant
		}
		for i := 0; i < n; i++ {
			k := r.Uint64()
			switch r.Intn(10) {
			case 0:
				k = 0
			case 1:
				k = ^uint64(0) - uint64(r.Intn(3))
			case 2, 3, 4:
				k %= 512
			}
			before := len(s.slots)
			s.add(k)
			want[k] = struct{}{}
			if len(s.slots) != before {
				if before != 0 && len(s.slots) != 2*before {
					t.Fatalf("grew %d → %d slots", before, len(s.slots))
				}
				checkSet(t, s, want)
			}
		}
		checkSet(t, s, want)
		return s, want
	}
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		n := 1 + r.Intn(20000)
		if seed == 1 {
			n = 100000 // through every growth step to 2^17 slots
		}
		a, wantA := build(r, n)
		b, wantB := build(r, r.Intn(3000))
		union := map[uint64]struct{}{}
		for k := range wantA {
			union[k] = struct{}{}
		}
		for k := range wantB {
			union[k] = struct{}{}
		}
		a2, _ := build(rng.New(seed), 0) // an empty set on either side
		a2.union(a)
		checkSet(t, a2, wantA)
		if seed%2 == 0 {
			b.union(a)
			checkSet(t, b, union)
		} else {
			a.union(b)
			checkSet(t, a, union)
		}
	}
	var s distinctSet
	if s.add(0); s.len() != 1 || s.slots != nil || !s.has(0) || s.has(1) {
		t.Fatalf("a set of 0 alone: len %d, %d slots", s.len(), len(s.slots))
	}
}

// TestDistinctSetCraftedRuns: the key sets a count_distinct meets that are
// not random — consecutive source addresses (a prefix swept in order),
// multiples of every power of two up to 2^63 (a shared suffix) — stay within
// a bounded distance of home at every load up to ¾: 48 probes, where the
// multiples measure 34 at worst and as many random keys reach about 120 at
// that load. Consecutive keys stay within a few slots of home. None of them
// walks a run long enough to move its set off the Fibonacci constant. Keys
// crafted to share one home under that constant do share one probe run in a
// set that cannot move; a set that can moves to its executor's drawn
// multiplier, under which they scatter, for each of sixteen draws, as the
// detector's crafted sources do (TestSourceTableCraftedRuns).
func TestDistinctSetCraftedRuns(t *testing.T) {
	longest := func(drawn uint64, keys func(i int) uint64, n int) (int, *distinctSet) {
		s := &distinctSet{drawn: drawn}
		for i := 0; i < n; i++ {
			s.add(keys(i))
		}
		worst := 0
		for _, k := range s.slots {
			if k != 0 {
				worst = max(worst, s.probes(k))
			}
		}
		return worst, s
	}
	r := rng.New(35)
	drawn := setMultiplier(r.Uint64)
	worstMult := 0
	for _, n := range []int{1000, 12288, 24576, 49152} { // ¾ of 2^k slots, and between
		w, s := longest(drawn, func(i int) uint64 { return 0xC0A80000 + uint64(i) }, n)
		if w > 4 || s.mult != fibonacci {
			t.Errorf("%d consecutive sources: a probe run of %d, multiplier %#x", n, w, s.mult)
		}
		for j := 0; j < 64; j++ {
			w, s := longest(drawn, func(i int) uint64 { return uint64(i+1) << j }, n)
			if w > 48 || s.mult != fibonacci {
				t.Errorf("%d multiples of 2^%d: a probe run of %d, multiplier %#x", n, j, w, s.mult)
			}
			worstMult = max(worstMult, w)
		}
	}

	// 512 keys land in 1024 slots, and the crafted ones all have home 777
	// there (and the same top bits at every smaller size) under the
	// Fibonacci constant: k·fibonacci = 777·2^54 + j, so k is that times the
	// constant's inverse mod 2^64.
	const crafted = 512
	inv := uint64(fibonacci) // Newton's iteration doubles the correct low bits: 3, 6, …, 96
	for i := 0; i < 5; i++ {
		inv *= 2 - fibonacci*inv
	}
	attack := func(j int) uint64 { return (777<<54 + uint64(j)) * inv }
	if n, _ := longest(0, attack, crafted); n < crafted {
		t.Fatalf("fixed constant: longest probe run %d, the crafted keys should share one of %d", n, crafted)
	}
	worstAttack := 0
	for d := 0; d < 16; d++ {
		drawn := setMultiplier(r.Uint64)
		n, s := longest(drawn, attack, crafted)
		if n > crafted/8 || s.mult != drawn || s.len() != crafted {
			t.Errorf("multiplier %#x: the crafted keys build a probe run of %d under %#x, and the set holds %d of them",
				drawn, n, s.mult, s.len())
		}
		worstAttack = max(worstAttack, n)
	}
	t.Logf("multiples: %d; crafted keys after the move: %d", worstMult, worstAttack)
}
