package query

import (
	"encoding/json"
	"testing"

	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
)

// TestMarshalRoundTrip: every builder-constructed query must survive
// MarshalJSON → Parse with its canonical Key intact — the property the
// remote client depends on to POST local queries at /v1/query. After the
// hand-picked query shapes it walks the field table: one leaf per field, and
// one per value of every named kind, so that whatever name a result renders
// as a group key can be sent back as a filter.
func TestMarshalRoundTrip(t *testing.T) {
	pfx, err := inetmodel.ParsePrefix("10.0.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	min, max := 100.0, 5000.0
	cases := []struct {
		name  string
		build func() (*Query, error)
	}{
		{"select-all", func() (*Query, error) { return NewBuilder().Build() }},
		{"select-filtered", func() (*Query, error) {
			return NewBuilder().Years(2020, 2021).Ports(443, 22).Limit(50).Build()
		}},
		{"count", func() (*Query, error) { return NewBuilder().Count().Build() }},
		{"grouped-topk", func() (*Query, error) {
			return NewBuilder().Qualified(true).GroupBy(FieldTool).
				Count().TopK(FieldPort, 10).Build()
		}},
		{"quantiles", func() (*Query, error) {
			return NewBuilder().Quantiles(FieldRate, 0.5, 0.9, 0.99).Build()
		}},
		{"tools-by-name", func() (*Query, error) {
			return NewBuilder().Tools(tools.ToolZMap, tools.ToolMirai).Count().Build()
		}},
		{"combinators", func() (*Query, error) {
			return NewBuilder().
				Where(Or(YearIn(2020), And(PortAny(23), Not(Qualified(true))))).
				Count().Build()
		}},
		{"src-prefix", func() (*Query, error) {
			return NewBuilder().Where(SrcIn(pfx)).Count().Build()
		}},
		{"time-range", func() (*Query, error) {
			return NewBuilder().Where(TimeBetween(1e15, 2e18)).Count().Build()
		}},
		{"num-range", func() (*Query, error) {
			return NewBuilder().Where(NumRange(FieldRate, &min, &max)).Count().Build()
		}},
		{"order-key", func() (*Query, error) {
			return NewBuilder().GroupBy(FieldYear).Count().OrderByKey().Build()
		}},
	}
	scans, origins := genScans(1, 7)
	r := rng.New(7)
	add := func(name string, e Expr) {
		cases = append(cases, struct {
			name  string
			build func() (*Query, error)
		}{name, func() (*Query, error) { return NewBuilder().Where(e).Count().Build() }})
	}
	for _, f := range Fields() {
		add("leaf/"+f.String(), leafFrom(f, scans[0], &origins[0], r))
		if e := f.def().enum; e != nil {
			for v := uint64(0); v < e.n; v++ {
				add("value/"+f.String()+"/"+e.name(v), &inExpr{leaf: leaf{f}, ints: []uint64{v}})
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			wire, err := json.Marshal(q)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			back, err := Parse(wire)
			if err != nil {
				t.Fatalf("parse of marshaled form %s: %v", wire, err)
			}
			if got, want := back.Key(), q.Key(); got != want {
				t.Fatalf("round trip changed the query:\nwire %s\n got %s\nwant %s",
					wire, got, want)
			}
			if q.Key() != string(wire) {
				t.Fatalf("key %s is not the canonical wire form %s", q.Key(), wire)
			}
		})
	}
}

// TestValidQueriesHaveExactWireForm: a query Validate accepts has one wire
// form, and Parse reads it back. So a filter the wire cannot carry exactly —
// a string that is not UTF-8, which JSON would carry as U+FFFD, or a prefix
// with host bits set, which Parse refuses — fails Build with a client error
// rather than being served, cached or sent as a different query.
func TestValidQueriesHaveExactWireForm(t *testing.T) {
	for name, e := range map[string]Expr{
		"country not UTF-8": Or(CountryIn("\xff"), CountryIn("\xfe")),
		"org not UTF-8":     OrgIn("ok", "\xc3"),
		"prefix host bits":  SrcIn(inetmodel.Prefix{Base: 0x0a000001, Bits: 8}),
	} {
		if q, err := NewBuilder().Where(e).Count().Build(); !IsClientError(err) {
			wire, merr := json.Marshal(q)
			t.Errorf("%s: Build = %v, want a client error (wire %s, %v)", name, err, wire, merr)
		}
	}
}
