package query

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/synscan/synscan/internal/rng"
)

// FuzzParse hardens the request parser: arbitrary bytes must either produce a
// valid query or a ClientError (a 400 to the HTTP layer) — never a panic, a
// non-client error, or an unbounded allocation. Valid outputs must survive
// Canonicalize/Key/Validate, the path every served request takes, and the
// canonical query's wire form must parse back to its Key.
func FuzzParse(f *testing.F) {
	// A fully-featured valid request.
	f.Add([]byte(`{
		"where": {"and": [
			{"field": "year", "in": [2020, 2021]},
			{"field": "port", "in": [22, 2323]},
			{"not": {"field": "tool", "eq": "Mirai-like"}},
			{"or": [
				{"field": "rate_pps", "min": 10, "max": 5000},
				{"field": "qualified", "eq": true}
			]},
			{"field": "src", "prefix": "10.0.0.0/8"},
			{"field": "time", "min_ns": 1, "max_ns": 9e18}
		]},
		"group_by": ["tool", "year"],
		"aggs": [
			{"op": "count"},
			{"op": "sum", "field": "packets"},
			{"op": "count_distinct", "field": "src"},
			{"op": "approx_distinct", "field": "src"},
			{"op": "top_k", "field": "port", "k": 10},
			{"op": "quantile", "field": "rate_pps", "qs": [0.5, 0.9, 0.99]}
		],
		"order_by": "key",
		"limit": 100
	}`))
	// Select mode.
	f.Add([]byte(`{"where": {"field": "year", "eq": 2020}, "limit": 50}`))
	f.Add([]byte(`{}`))
	// Malformed JSON.
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"where": {"and": [}}`))
	f.Add([]byte(`{"unknown_key": 1}`))
	f.Add([]byte(`{"limit": 1}{"limit": 2}`))
	// Structural abuse: nesting beyond maxDepth, oversized in-lists.
	f.Add([]byte(`{"where": ` + strings.Repeat(`{"not": `, 64) +
		`{"field": "year", "eq": 2020}` + strings.Repeat(`}`, 64) + `}`))
	f.Add([]byte(`{"where": {"field": "port", "in": [` +
		strings.Repeat("1,", 8192) + `1]}, "aggs": [{"op": "count"}]}`))
	// Absurd parameters: must come back as client errors, not allocations.
	f.Add([]byte(`{"aggs": [{"op": "top_k", "field": "port", "k": 1000000000}]}`))
	f.Add([]byte(`{"aggs": [{"op": "top_k", "field": "port", "k": -1}]}`))
	f.Add([]byte(`{"aggs": [{"op": "quantile", "field": "rate_pps", "qs": [1.5, -2, 1e300]}]}`))
	f.Add([]byte(`{"aggs": [{"op": "quantile", "field": "rate_pps", "qs": []}]}`))
	f.Add([]byte(`{"group_by": ["rate_pps"], "aggs": [{"op": "count"}]}`))
	f.Add([]byte(`{"group_by": ["port"]}`))
	f.Add([]byte(`{"where": {"field": "src", "prefix": "999.0.0.0/40"}}`))
	f.Add([]byte(`{"where": {"field": "year", "in": [-1, 1e20]}}`))
	f.Add([]byte(`{"where": {"field": "tool", "eq": "no-such-tool"}}`))
	f.Add([]byte(`{"limit": -5}`))
	f.Add([]byte(`{"limit": 100000000}`))

	// Every field, from the table: its filter leaf (set kinds in both the
	// "in" and the "eq" spelling) and one aggregate per operator it accepts.
	scans, origins := genScans(1, 9)
	r := rng.New(9)
	seed := func(q *Query) {
		wire, err := json.Marshal(q)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	for _, fd := range Fields() {
		d, leaf := fd.def(), leafFrom(fd, scans[0], &origins[0], r)
		seed(&Query{Where: leaf, Limit: 10})
		if in, ok := leaf.(*inExpr); ok {
			wire, _ := marshalExpr(in)
			var node struct{ In []json.RawMessage }
			if err := json.Unmarshal(wire, &node); err != nil {
				f.Fatal(err)
			}
			f.Add([]byte(fmt.Sprintf(`{"where":{"field":%q,"eq":%s}}`, fd, node.In[0])))
		}
		if d.caps&capGroup != 0 {
			seed(&Query{GroupBy: []Field{fd}, Aggs: []Agg{{Op: OpCount}}})
		}
		if d.numeric() {
			seed(&Query{Aggs: []Agg{{Op: OpSum, Field: fd}, {Op: OpQuantile, Field: fd, Qs: []float64{0.5}}}})
		}
		if d.caps&capDistinct != 0 {
			seed(&Query{Aggs: []Agg{{Op: OpCountDistinct, Field: fd}, {Op: OpApproxDistinct, Field: fd}}})
		}
		if d.caps&capTopK != 0 {
			seed(&Query{Aggs: []Agg{{Op: OpTopK, Field: fd, K: 5}}})
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := Parse(data)
		if err != nil {
			if !IsClientError(err) {
				t.Fatalf("non-client parse error: %v", err)
			}
			return
		}
		// Accepted queries must be servable end to end.
		c := q.Canonicalize()
		if err := c.Validate(); err != nil {
			t.Fatalf("canonicalized query fails validation: %v", err)
		}
		if c.Key() == "" {
			t.Fatal("empty cache key")
		}
		// The key is the canonical wire form, which reads back as itself.
		wire, err := c.MarshalJSON()
		if err != nil {
			t.Fatalf("canonical query has no wire form: %v", err)
		}
		back, err := Parse(wire)
		if err != nil {
			t.Fatalf("wire form %s does not parse: %v", wire, err)
		}
		if got := back.Key(); got != c.Key() {
			t.Fatalf("wire form does not round-trip:\n got %s\nwant %s", got, c.Key())
		}
		_ = c.Predicate()
	})
}
