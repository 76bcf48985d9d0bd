package query

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/fingerprint"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/stats"
	"github.com/synscan/synscan/internal/tools"
)

// genScans builds n deterministic scans spread over years 2015-2024, all
// tools, varied port sets and the full source space, with parallel origins.
// Every fifth scan carries the reactive two-phase attributes, so archives and
// queries over the generated set exercise the phase extension end to end.
func genScans(n int, seed uint64) ([]*core.Scan, []enrich.Origin) {
	r := rng.New(seed)
	scans := make([]*core.Scan, 0, n)
	origins := make([]enrich.Origin, 0, n)
	for i := 0; i < n; i++ {
		year := 2015 + i%10
		start := time.Date(year, time.March, 1, 0, 0, 0, 0, time.UTC).UnixNano() +
			r.Int63n(int64(90*24)*int64(time.Hour))
		nPorts := 1 + int(r.Uint32()%4)
		ports := make([]uint16, 0, nPorts)
		p := uint16(r.Uint32() % 2000)
		for j := 0; j < nPorts; j++ {
			p += uint16(1 + r.Uint32()%300)
			ports = append(ports, p)
		}
		sc := &core.Scan{
			Src:          r.Uint32(),
			Start:        start,
			End:          start + r.Int63n(int64(2*time.Hour)),
			Packets:      uint64(1 + r.Uint32()%50000),
			DistinctDsts: 1 + int(r.Uint32()%2048),
			Ports:        ports,
			Tool:         tools.Tool(i % 7),
			Qualified:    i%3 != 0,
			RatePPS:      math.Abs(r.NormFloat64()) * 3000,
			Coverage:     float64(r.Uint32()%1000) / 1000,
			ISN:          fingerprint.ISNClass(i % 3),
		}
		if i%5 == 0 {
			sc.TwoPhase = true
			sc.ISN = fingerprint.ISNMixed
			sc.LinkedDsts = 1 + int(r.Uint32()%64)
			sc.HandshakePackets = uint64(r.Uint32()) % sc.Packets
			sc.PayloadBytes = uint64(r.Uint32() % 4096)
			sc.Payload = []byte{0x16, 0x03, 0x01, byte(i)}
		}
		sc.ScoutPackets = sc.Packets - sc.HandshakePackets
		scans = append(scans, sc)
		origins = append(origins, enrich.Origin{
			Country: fmt.Sprintf("C%d", i%11),
			ASN:     r.Uint32() % 50000,
			Type:    inetmodel.ScannerType(i % 5),
			OrgID:   int16(i%16 - 1),
			OrgName: fmt.Sprintf("org-%d", i%16),
		})
	}
	return scans, origins
}

// writeArc archives scans into a buffer (small blocks, so pushdown has
// something to prune).
func writeArc(t testing.TB, scans []*core.Scan, origins []enrich.Origin, withOrigins bool) []byte {
	t.Helper()
	return writeArcBlocks(t, scans, origins, withOrigins, 4<<10)
}

func writeArcBlocks(t testing.TB, scans []*core.Scan, origins []enrich.Origin, withOrigins bool, blockBytes int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf, archive.WriterConfig{
		TelescopeSize: 4096, Origins: withOrigins, BlockBytes: blockBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range scans {
		if withOrigins {
			err = w.AddWithOrigin(sc, origins[i])
		} else {
			err = w.Add(sc)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openArc(t testing.TB, data []byte) *archive.Reader {
	t.Helper()
	r, err := archive.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParseFullRequest(t *testing.T) {
	q, err := Parse([]byte(`{
		"where": {"and": [
			{"field": "year", "in": [2020, 2021]},
			{"field": "port", "in": [22, 2323]},
			{"not": {"field": "tool", "eq": "Mirai-like"}},
			{"field": "rate_pps", "min": 10},
			{"field": "src", "prefix": "10.0.0.0/8"},
			{"field": "qualified", "eq": true}
		]},
		"group_by": ["tool"],
		"aggs": [
			{"op": "count"},
			{"op": "sum", "field": "packets"},
			{"op": "count_distinct", "field": "src"},
			{"op": "approx_distinct", "field": "src"},
			{"op": "top_k", "field": "port", "k": 10},
			{"op": "quantile", "field": "rate_pps", "qs": [0.5, 0.9, 0.99]}
		],
		"order_by": "agg",
		"limit": 100
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != FieldTool {
		t.Fatalf("group_by = %v", q.GroupBy)
	}
	if len(q.Aggs) != 6 || q.Aggs[4].K != 10 || len(q.Aggs[5].Qs) != 3 {
		t.Fatalf("aggs = %+v", q.Aggs)
	}
	if q.Limit != 100 || q.Order != OrderDefault {
		t.Fatalf("limit=%d order=%v", q.Limit, q.Order)
	}
	if q.SelectMode() {
		t.Fatal("aggregate query classified as select")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,                                       // empty
		`{`,                                      // truncated
		`[1,2]`,                                  // wrong top-level type
		`{"bogus": 1}`,                           // unknown key
		`{} trailing`,                            // trailing garbage
		`{"where": {"field": "nope", "eq": 1}}`,  // unknown field
		`{"where": {"field": "year"}}`,           // missing operator
		`{"where": {"field": "year", "in": []}}`, // empty set
		`{"where": {"field": "year", "in": ["x"]}}`,                               // wrong value type
		`{"where": {"field": "year", "min": 3}}`,                                  // wrong operator
		`{"where": {"field": "port", "in": [70000]}}`,                             // port out of range
		`{"where": {"field": "tool", "eq": "notatool"}}`,                          // unknown tool
		`{"where": {"field": "src", "prefix": "bogus"}}`,                          // bad prefix
		`{"where": {"field": "qualified", "eq": 3}}`,                              // non-bool
		`{"where": {"field": "rate_pps", "min": 9, "max": 1}}`,                    // inverted range
		`{"where": {"and": []}}`,                                                  // empty and
		`{"where": {"and": [{"field":"year","eq":1}], "field": "year", "eq": 1}}`, // mixed node
		`{"group_by": ["rate_pps"], "aggs": [{"op":"count"}]}`,                    // ungroupable
		`{"group_by": ["tool","tool"], "aggs": [{"op":"count"}]}`,                 // duplicate
		`{"group_by": ["tool"]}`,                                                  // grouping without aggs
		`{"aggs": [{"op": "bogus"}]}`,                                             // unknown op
		`{"aggs": [{"op": "sum"}]}`,                                               // sum without field
		`{"aggs": [{"op": "count", "field": "year"}]}`,                            // count with field
		`{"aggs": [{"op": "top_k", "field": "port"}]}`,                            // k missing
		`{"aggs": [{"op": "top_k", "field": "port", "k": 1000000}]}`,              // absurd k
		`{"aggs": [{"op": "top_k", "field": "country", "k": 5}]}`,                 // unrankable field
		`{"aggs": [{"op": "quantile", "field": "rate_pps"}]}`,                     // qs missing
		`{"aggs": [{"op": "quantile", "field": "rate_pps", "qs": [1.5]}]}`,        // q out of range
		`{"aggs": [{"op": "quantile", "field": "tool", "qs": [0.5]}]}`,            // non-numeric
		`{"order_by": "sideways"}`,                                                // unknown order
		`{"limit": -1}`,                                                           // negative limit
	}
	for _, c := range cases {
		q, err := Parse([]byte(c))
		if err == nil {
			t.Errorf("Parse(%q) accepted: %+v", c, q)
			continue
		}
		if !IsClientError(err) {
			t.Errorf("Parse(%q): non-client error %v", c, err)
		}
	}
}

func TestParseDepthAndSizeCaps(t *testing.T) {
	deep := strings.Repeat(`{"not":`, maxDepth+1) +
		`{"field":"year","eq":2020}` + strings.Repeat(`}`, maxDepth+1)
	if _, err := Parse([]byte(`{"where":` + deep + `}`)); err == nil || !IsClientError(err) {
		t.Fatalf("deep nesting: err = %v", err)
	}
	var sb strings.Builder
	sb.WriteString(`{"where": {"or": [`)
	for i := 0; i <= maxNodes; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"field":"year","eq":%d}`, 2000+i%30)
	}
	sb.WriteString(`]}}`)
	if _, err := Parse([]byte(sb.String())); err == nil || !IsClientError(err) {
		t.Fatalf("node cap: err = %v", err)
	}
}

// TestCanonicalKey: semantically identical requests canonicalize to one key;
// different requests don't collide.
func TestCanonicalKey(t *testing.T) {
	parseKey := func(s string) string {
		t.Helper()
		q, err := Parse([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		return q.Canonicalize().Key()
	}
	same := [][2]string{
		{
			`{"where": {"field": "year", "in": [2021, 2020, 2021]}}`,
			`{"where": {"field": "year", "in": [2020, 2021]}}`,
		},
		{
			`{"where": {"and": [{"field":"year","eq":2020},{"field":"qualified","eq":true}]}}`,
			`{"where": {"and": [{"field":"qualified","eq":true},{"field":"year","eq":2020}]}}`,
		},
		{
			`{"where": {"and": [{"and": [{"field":"year","eq":2020}]},{"field":"port","eq":22}]}}`,
			`{"where": {"and": [{"field":"year","eq":2020},{"field":"port","eq":22}]}}`,
		},
		{
			`{"where": {"not": {"not": {"field":"year","eq":2020}}}}`,
			`{"where": {"field": "year", "eq": 2020}}`,
		},
		{
			`{"aggs": [{"op":"quantile","field":"rate_pps","qs":[0.9,0.5,0.9]}]}`,
			`{"aggs": [{"op":"quantile","field":"rate_pps","qs":[0.5,0.9]}]}`,
		},
	}
	for _, pair := range same {
		if k0, k1 := parseKey(pair[0]), parseKey(pair[1]); k0 != k1 {
			t.Errorf("keys differ:\n  %s -> %s\n  %s -> %s", pair[0], k0, pair[1], k1)
		}
	}
	distinct := []string{
		`{}`,
		`{"where": {"field": "year", "eq": 2020}}`,
		`{"where": {"field": "year", "eq": 2021}}`,
		`{"where": {"not": {"field": "year", "eq": 2020}}}`,
		`{"where": {"or": [{"field":"year","eq":2020},{"field":"year","eq":2021}]}}`,
		`{"group_by": ["tool"], "aggs": [{"op":"count"}]}`,
		`{"group_by": ["tool"], "aggs": [{"op":"count"}], "order_by": "key"}`,
		`{"group_by": ["tool"], "aggs": [{"op":"count"}], "limit": 5}`,
		`{"group_by": ["tool"], "aggs": [{"op":"count"}], "order_by": "key", "limit": 5}`,
		`{"where": {"field": "dsts", "min": 2020}}`,
		`{"where": {"field": "time", "min_ns": 2020}}`,
		`{"where": {"field": "time", "max_ns": 2020}}`,
		`{"where": {"field": "src", "prefix": "10.0.0.0/8"}}`,
		`{"where": {"field": "src", "prefix": "10.0.0.0/16"}}`,
		`{"where": {"field": "country", "eq": "org-1"}}`,
		`{"where": {"field": "org", "eq": "org-1"}}`,
		`{"aggs": [{"op":"top_k","field":"port","k":5}]}`,
		`{"aggs": [{"op":"top_k","field":"port","k":6}]}`,
		`{"aggs": [{"op":"quantile","field":"rate_pps","qs":[0.5]}]}`,
		`{"aggs": [{"op":"quantile","field":"rate_pps","qs":[0.5,0.9]}]}`,
	}
	seen := map[string]string{}
	for _, c := range distinct {
		k := parseKey(c)
		if prev, ok := seen[k]; ok {
			t.Errorf("key collision: %s and %s -> %s", prev, c, k)
		}
		seen[k] = c
	}
}

func TestSelectMode(t *testing.T) {
	scans, origins := genScans(500, 7)
	q, err := NewBuilder().Years(2020).Limit(10).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), q, SliceSource{Scans: scans, Origins: origins})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, sc := range scans {
		if archive.YearOf(sc.Start) == 2020 {
			want++
		}
	}
	if res.Matched != want {
		t.Fatalf("Matched = %d, want %d", res.Matched, want)
	}
	if len(res.Scans) != 10 || !res.Truncated {
		t.Fatalf("returned %d truncated=%v", len(res.Scans), res.Truncated)
	}
	for _, rec := range res.Scans {
		if archive.YearOf(rec.Scan.Start) != 2020 {
			t.Fatalf("filter leaked year %d", archive.YearOf(rec.Scan.Start))
		}
		if rec.Origin == nil {
			t.Fatal("origin lost in select mode")
		}
	}
}

// TestAggregatesAgainstHandRolled pins executor semantics against plain
// loops: count, exact sums, exact distinct, quantiles, per-port packet
// splitting.
func TestAggregatesAgainstHandRolled(t *testing.T) {
	scans, origins := genScans(800, 11)
	q, err := NewBuilder().
		Qualified(true).
		GroupBy(FieldPort).
		Count().
		Sum(FieldPackets).
		CountDistinct(FieldSrc).
		Quantiles(FieldRate, 0.5, 0.9).
		OrderByKey().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), q, SliceSource{Scans: scans, Origins: origins})
	if err != nil {
		t.Fatal(err)
	}

	type ref struct {
		count   uint64
		packets uint64
		srcs    map[uint32]struct{}
		rates   []float64
	}
	byPort := map[uint16]*ref{}
	var matched uint64
	for _, sc := range scans {
		if !sc.Qualified {
			continue
		}
		matched++
		for _, p := range sc.Ports {
			r := byPort[p]
			if r == nil {
				r = &ref{srcs: map[uint32]struct{}{}}
				byPort[p] = r
			}
			r.count++
			r.packets += sc.Packets / uint64(len(sc.Ports))
			r.srcs[sc.Src] = struct{}{}
			r.rates = append(r.rates, sc.RatePPS)
		}
	}
	if res.Matched != matched {
		t.Fatalf("Matched = %d, want %d", res.Matched, matched)
	}
	if len(res.Rows) != len(byPort) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(byPort))
	}
	for _, row := range res.Rows {
		p := uint16(row.Key[0].Num)
		r := byPort[p]
		if r == nil {
			t.Fatalf("unexpected port %d", p)
		}
		if row.Aggs[0].Count != r.count {
			t.Fatalf("port %d count %d want %d", p, row.Aggs[0].Count, r.count)
		}
		if !row.Aggs[1].IsInt || row.Aggs[1].Int != r.packets {
			t.Fatalf("port %d packets %d want %d", p, row.Aggs[1].Int, r.packets)
		}
		if row.Aggs[2].Count != uint64(len(r.srcs)) {
			t.Fatalf("port %d distinct %d want %d", p, row.Aggs[2].Count, len(r.srcs))
		}
		for i, qv := range []float64{0.5, 0.9} {
			if want := stats.Quantile(r.rates, qv); row.Aggs[3].Vals[i] != want {
				t.Fatalf("port %d q%.1f = %v want %v", p, qv, row.Aggs[3].Vals[i], want)
			}
		}
	}
	// OrderByKey: ports ascending.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1].Key[0].Num >= res.Rows[i].Key[0].Num {
			t.Fatal("rows not key-sorted")
		}
	}
}

// TestMergeEqualsSequential: splitting a stream into partials and merging
// yields the same result as one sequential executor, for every aggregate.
func TestMergeEqualsSequential(t *testing.T) {
	scans, origins := genScans(900, 13)
	q, err := NewBuilder().
		GroupBy(FieldTool).
		Count().
		Sum(FieldPackets).
		Sum(FieldRate).
		CountDistinct(FieldSrc).
		ApproxDistinct(FieldSrc).
		TopK(FieldPort, 8).
		Quantiles(FieldRate, 0.5, 0.99).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	feed := func(e *Executor, from, to int) {
		for i := from; i < to; i++ {
			e.Observe(scans[i], &origins[i])
		}
	}
	seq := NewExecutor(q)
	feed(seq, 0, len(scans))
	want, err := seq.Finish()
	if err != nil {
		t.Fatal(err)
	}

	parts := []int{0, 137, 400, 640, len(scans)}
	var total *Executor
	for i := 1; i < len(parts); i++ {
		part := NewExecutor(q)
		feed(part, parts[i-1], parts[i])
		if total == nil {
			total = part
		} else {
			total.Merge(part)
		}
	}
	got, err := total.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want)
}

// floatsClose compares within a relative ulp-scale tolerance: float sums are
// exact per partial but addition is not associative, so merging partials can
// differ from a sequential sum in the last bits.
func floatsClose(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// sameResults asserts two results are equal: exactly for counts, integer
// sums, distincts, rankings and quantile values, within float tolerance for
// float sums.
func sameResults(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Matched != want.Matched || got.Truncated != want.Truncated ||
		got.TotalRows != want.TotalRows {
		t.Fatalf("result headers differ: got %d/%v/%d want %d/%v/%d",
			got.Matched, got.Truncated, got.TotalRows,
			want.Matched, want.Truncated, want.TotalRows)
	}
	if !reflect.DeepEqual(got.Scans, want.Scans) {
		t.Fatalf("select rows differ: %d vs %d scans", len(got.Scans), len(want.Scans))
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("row count %d != %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		gr, wr := got.Rows[i], want.Rows[i]
		if !reflect.DeepEqual(gr.Key, wr.Key) {
			t.Fatalf("row %d key %+v != %+v", i, gr.Key, wr.Key)
		}
		if len(gr.Aggs) != len(wr.Aggs) {
			t.Fatalf("row %d agg count differs", i)
		}
		for j := range gr.Aggs {
			ga, wa := gr.Aggs[j], wr.Aggs[j]
			if ga.Op != wa.Op || ga.Field != wa.Field || ga.Count != wa.Count ||
				ga.Int != wa.Int || ga.IsInt != wa.IsInt ||
				!reflect.DeepEqual(ga.Top, wa.Top) ||
				!reflect.DeepEqual(ga.Qs, wa.Qs) || len(ga.Vals) != len(wa.Vals) {
				t.Fatalf("row %d agg %d differs:\n got %+v\nwant %+v", i, j, ga, wa)
			}
			if !floatsClose(ga.Float, wa.Float) {
				t.Fatalf("row %d agg %d float %v != %v", i, j, ga.Float, wa.Float)
			}
			for k := range ga.Vals {
				if !floatsClose(ga.Vals[k], wa.Vals[k]) {
					t.Fatalf("row %d agg %d val %d: %v != %v", i, j, k, ga.Vals[k], wa.Vals[k])
				}
			}
		}
	}
}

// TestBuilderMatchesParsedKey: the fluent builder and the JSON form
// canonicalize to the same cache key.
func TestBuilderMatchesParsedKey(t *testing.T) {
	built, err := NewBuilder().
		Years(2021, 2020).
		Ports(22, 2323).
		Qualified(true).
		GroupBy(FieldTool).
		Count().
		Sum(FieldPackets).
		Limit(20).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse([]byte(`{
		"where": {"and": [
			{"field": "qualified", "eq": true},
			{"field": "port", "in": [2323, 22]},
			{"field": "year", "in": [2020, 2021]}
		]},
		"group_by": ["tool"],
		"aggs": [{"op": "count"}, {"op": "sum", "field": "packets"}],
		"limit": 20
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if bk, pk := built.Key(), parsed.Canonicalize().Key(); bk != pk {
		t.Fatalf("builder key %q != parsed key %q", bk, pk)
	}
}

// TestOriginGroupingSkipsOriginless: origin group-bys drop scans from
// origin-less sources instead of inventing a zero group.
func TestOriginGroupingSkipsOriginless(t *testing.T) {
	scans, origins := genScans(200, 17)
	q, err := NewBuilder().GroupBy(FieldType).Count().Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), q,
		SliceSource{Scans: scans, Origins: origins}, // with origins
		SliceSource{Scans: scans},                   // without
	)
	if err != nil {
		t.Fatal(err)
	}
	var rows uint64
	for _, row := range res.Rows {
		rows += row.Aggs[0].Count
	}
	if rows != uint64(len(scans)) {
		t.Fatalf("origin rows = %d, want %d (origin-less source must not contribute)", rows, len(scans))
	}
	// Matched still counts both sources: the filter matched, only the
	// grouping had nowhere to put them.
	if res.Matched != uint64(2*len(scans)) {
		t.Fatalf("Matched = %d, want %d", res.Matched, 2*len(scans))
	}
}

// TestGroupCap: a grouping that explodes past maxGroups fails with a client
// error instead of exhausting memory — in the hashed layout, and in the
// port-addressed one a port grouping spills to, with a cap below its 65 536
// groups, whether the groups come from scans or from a merged partial.
func TestGroupCap(t *testing.T) {
	old := maxGroups
	defer func() { maxGroups = old }()
	maxGroups = 100
	q, err := NewBuilder().GroupBy(FieldASN).Count().Build()
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(q)
	sc := core.Scan{Ports: []uint16{1}, Packets: 1}
	o := enrich.Origin{}
	for i := 0; i <= maxGroups; i++ {
		o.ASN = uint32(i)
		e.Observe(&sc, &o)
	}
	if _, err := e.Finish(); err == nil || !IsClientError(err) {
		t.Fatalf("group cap: err = %v", err)
	}

	maxGroups = 20000
	q, err = NewBuilder().GroupBy(FieldPort).Count().Build()
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(from, to int) *Executor {
		e := NewExecutor(q)
		for p := from; p < to; p++ {
			sc.Ports[0] = uint16(p)
			e.Observe(&sc, &o)
		}
		return e
	}
	if e := sweep(0, maxGroups); e.present == nil || e.err != nil {
		t.Fatalf("%d ports: spilled = %v, err = %v", maxGroups, e.present != nil, e.err)
	}
	if _, err := sweep(0, maxGroups+1).Finish(); err == nil || !IsClientError(err) {
		t.Fatalf("group cap after the spill: err = %v", err)
	}
	e = sweep(0, maxGroups/2)
	e.Merge(sweep(maxGroups/2, maxGroups+1))
	if _, err := e.Finish(); err == nil || !IsClientError(err) {
		t.Fatalf("group cap in a merge that spills: err = %v", err)
	}
}

// TestZoneMapPruning: the compiled predicate actually prunes blocks (the
// planner wires Expr.matchBlock through to the reader).
func TestZoneMapPruning(t *testing.T) {
	scans, origins := genScans(4000, 19)
	// Archive in time order so blocks cover narrow year ranges the zone maps
	// can prune on (the live pipeline archives in stream order too).
	sorted := append([]*core.Scan(nil), scans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	data := writeArc(t, sorted, origins, false)
	rd := openArc(t, data)
	q, err := NewBuilder().Years(2016).Build()
	if err != nil {
		t.Fatal(err)
	}
	p := q.Predicate()
	pruned := 0
	for _, z := range rd.Blocks() {
		if !p.MatchBlock(&z) {
			pruned++
		}
	}
	if pruned == 0 {
		t.Fatalf("year filter pruned no blocks out of %d", rd.NumBlocks())
	}
	// And the pruned read still returns exactly the right scans.
	res, err := Run(context.Background(), q, ReaderSource{R: rd})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, sc := range scans {
		if archive.YearOf(sc.Start) == 2016 {
			want++
		}
	}
	if res.Matched != want {
		t.Fatalf("Matched = %d, want %d", res.Matched, want)
	}
}
