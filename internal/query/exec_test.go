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
