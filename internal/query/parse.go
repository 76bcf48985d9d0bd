package query

import (
	"bytes"
	"encoding/json"
	"strings"

	"github.com/synscan/synscan/internal/inetmodel"
)

// Parse decodes the compact JSON request form into a validated Query.
//
//	{
//	  "where": {"and": [
//	    {"field": "year", "in": [2020, 2021]},
//	    {"field": "port", "in": [22, 2323]},
//	    {"not": {"field": "tool", "eq": "Mirai-like"}},
//	    {"field": "rate_pps", "min": 1000},
//	    {"field": "src", "prefix": "10.0.0.0/8"},
//	    {"field": "time", "min_ns": 0, "max_ns": 1700000000000000000}
//	  ]},
//	  "group_by": ["tool"],
//	  "aggs": [
//	    {"op": "count"},
//	    {"op": "sum", "field": "packets"},
//	    {"op": "count_distinct", "field": "src"},
//	    {"op": "approx_distinct", "field": "src"},
//	    {"op": "top_k", "field": "port", "k": 10},
//	    {"op": "quantile", "field": "rate_pps", "qs": [0.5, 0.9, 0.99]}
//	  ],
//	  "order_by": "agg",
//	  "limit": 100
//	}
//
// Filter leaves name a field plus one operator: "in"/"eq" for discrete
// fields (tool and type values are display names, case-insensitive),
// "min"/"max" for numeric ranges, "min_ns"/"max_ns" for the time range,
// "prefix" for source CIDR containment. Combinators are "and", "or", "not".
// Omitting "where" matches everything; omitting "group_by" and "aggs"
// selects raw scans (capped by "limit").
//
// Every malformed input — unknown keys, wrong value types, empty operand
// lists, nesting or size beyond the package caps — returns a ClientError
// and never panics; see FuzzParse.
func Parse(data []byte) (*Query, error) {
	var req struct {
		Where   json.RawMessage `json:"where"`
		GroupBy []string        `json:"group_by"`
		Aggs    []struct {
			Op    string    `json:"op"`
			Field string    `json:"field"`
			K     int       `json:"k"`
			Qs    []float64 `json:"qs"`
		} `json:"aggs"`
		OrderBy string `json:"order_by"`
		Limit   *int   `json:"limit"`
	}
	if err := decodeStrict(data, &req); err != nil {
		return nil, errf("invalid request: %v", err)
	}
	q := &Query{}
	if len(req.Where) > 0 && !bytes.Equal(req.Where, []byte("null")) {
		nodes := 0
		e, err := parseNode(req.Where, 1, &nodes)
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	if len(req.GroupBy) > maxGroupBy {
		return nil, errf("group_by has %d fields, exceeds %d", len(req.GroupBy), maxGroupBy)
	}
	for _, name := range req.GroupBy {
		f, ok := FieldByName(name)
		if !ok {
			return nil, errf("unknown group_by field %q", name)
		}
		q.GroupBy = append(q.GroupBy, f)
	}
	if len(req.Aggs) > maxAggs {
		return nil, errf("query has %d aggregates, exceeds %d", len(req.Aggs), maxAggs)
	}
	for _, ja := range req.Aggs {
		op, ok := AggOpByName(ja.Op)
		if !ok {
			return nil, errf("unknown aggregate op %q", ja.Op)
		}
		a := Agg{Op: op, K: ja.K, Qs: ja.Qs}
		if ja.Field != "" {
			f, ok := FieldByName(ja.Field)
			if !ok {
				return nil, errf("unknown aggregate field %q", ja.Field)
			}
			a.Field = f
		}
		q.Aggs = append(q.Aggs, a)
	}
	switch req.OrderBy {
	case "", "agg":
		q.Order = OrderDefault
	case "key":
		q.Order = OrderKey
	default:
		return nil, errf("unknown order_by %q (want \"agg\" or \"key\")", req.OrderBy)
	}
	if req.Limit != nil {
		q.Limit = *req.Limit
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// decodeStrict unmarshals rejecting unknown keys and trailing garbage.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A second value (or non-whitespace trailer) is a malformed request.
	if dec.More() {
		return errf("trailing data after request object")
	}
	return nil
}

// parseNode parses one filter node, enforcing depth and node-count caps
// before recursing.
func parseNode(raw json.RawMessage, depth int, nodes *int) (Expr, error) {
	if depth > maxDepth {
		return nil, errf("filter nesting depth exceeds %d", maxDepth)
	}
	*nodes++
	if *nodes > maxNodes {
		return nil, errf("filter exceeds %d nodes", maxNodes)
	}
	var n struct {
		And    []json.RawMessage `json:"and"`
		Or     []json.RawMessage `json:"or"`
		Not    json.RawMessage   `json:"not"`
		Field  string            `json:"field"`
		In     []json.RawMessage `json:"in"`
		Eq     json.RawMessage   `json:"eq"`
		Min    *float64          `json:"min"`
		Max    *float64          `json:"max"`
		MinNS  *int64            `json:"min_ns"`
		MaxNS  *int64            `json:"max_ns"`
		Prefix string            `json:"prefix"`
	}
	if err := decodeStrict(raw, &n); err != nil {
		return nil, errf("invalid filter node: %v", err)
	}
	combinators := 0
	if n.And != nil {
		combinators++
	}
	if n.Or != nil {
		combinators++
	}
	if n.Not != nil {
		combinators++
	}
	if combinators > 1 || (combinators == 1 && n.Field != "") {
		return nil, errf("filter node mixes combinators and field predicates")
	}
	switch {
	case n.And != nil:
		kids, err := parseKids(n.And, depth, nodes)
		if err != nil {
			return nil, err
		}
		return &andExpr{kids: kids}, nil
	case n.Or != nil:
		kids, err := parseKids(n.Or, depth, nodes)
		if err != nil {
			return nil, err
		}
		return &orExpr{kids: kids}, nil
	case n.Not != nil:
		kid, err := parseNode(n.Not, depth+1, nodes)
		if err != nil {
			return nil, err
		}
		return &notExpr{kid: kid}, nil
	}
	if n.Field == "" {
		return nil, errf("filter node needs a combinator or a field")
	}
	f, ok := FieldByName(n.Field)
	if !ok {
		return nil, errf("unknown filter field %q", n.Field)
	}
	e, err := parseLeaf(f, n.In, n.Eq, n.Min, n.Max, n.MinNS, n.MaxNS, n.Prefix)
	if err != nil {
		return nil, err
	}
	if err := e.validate(); err != nil {
		return nil, err
	}
	return e, nil
}

func parseKids(raws []json.RawMessage, depth int, nodes *int) ([]Expr, error) {
	if len(raws) == 0 {
		return nil, errf("and/or needs at least one operand")
	}
	if len(raws) > maxNodes {
		return nil, errf("filter exceeds %d nodes", maxNodes)
	}
	kids := make([]Expr, 0, len(raws))
	for _, raw := range raws {
		kid, err := parseNode(raw, depth+1, nodes)
		if err != nil {
			return nil, err
		}
		kids = append(kids, kid)
	}
	return kids, nil
}

// parseLeaf builds the leaf predicate for field f from whichever operator
// keys the node carried.
func parseLeaf(f Field, in []json.RawMessage, eq json.RawMessage,
	min, max *float64, minNS, maxNS *int64, prefix string) (Expr, error) {
	// Reject operators that don't belong to the field up front, so a typo'd
	// request fails loudly instead of silently ignoring a key.
	hasSet := len(in) > 0 || len(eq) > 0
	hasRange := min != nil || max != nil
	hasTime := minNS != nil || maxNS != nil
	switch f.def().kind {
	case kindPrefix:
		if hasSet || hasRange || hasTime || prefix == "" {
			return nil, errf("%s takes exactly a \"prefix\"", f)
		}
		pfx, err := inetmodel.ParsePrefix(prefix)
		if err != nil {
			return nil, errf("invalid %s prefix %q: %v", f, prefix, err)
		}
		return &prefixExpr{leaf{f}, pfx}, nil
	case kindTime:
		if hasSet || hasRange || prefix != "" || !hasTime {
			return nil, errf("%s takes \"min_ns\"/\"max_ns\"", f)
		}
		return &timeExpr{leaf{f}, minNS, maxNS}, nil
	case kindBool:
		if hasRange || hasTime || prefix != "" || len(in) > 0 || len(eq) == 0 {
			return nil, errf("%s takes exactly an \"eq\" boolean", f)
		}
		var want bool
		if err := json.Unmarshal(eq, &want); err != nil {
			return nil, errf("%s: eq wants a boolean", f)
		}
		return &boolExpr{leaf{f}, want}, nil
	case kindNum:
		if hasSet || hasTime || prefix != "" || !hasRange {
			return nil, errf("%s takes \"min\"/\"max\"", f)
		}
		return &rangeExpr{leaf{f}, min, max}, nil
	}
	// Set-membership kinds: enum, integer, string.
	if hasRange || hasTime || prefix != "" || !hasSet {
		return nil, errf("%s takes \"in\" or \"eq\"", f)
	}
	if len(in) > 0 && len(eq) > 0 {
		return nil, errf("%s: give \"in\" or \"eq\", not both", f)
	}
	vals := in
	if len(eq) > 0 {
		vals = []json.RawMessage{eq}
	}
	if len(vals) > maxInValues {
		return nil, errf("%s: value set exceeds %d entries", f, maxInValues)
	}
	e := &inExpr{leaf: leaf{f}}
	for _, raw := range vals {
		if err := e.appendValue(raw); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// appendValue parses one set-membership value of e's field.
func (e *inExpr) appendValue(raw json.RawMessage) error {
	d := e.field.def()
	if d.kind == kindInt {
		var v uint64
		if err := json.Unmarshal(raw, &v); err != nil {
			return errf("%s: want a non-negative integer, got %s", e.field, raw)
		}
		e.ints = append(e.ints, v)
		return nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		want := "a string"
		if d.kind == kindEnum {
			want = d.enum.want
		}
		return errf("%s: want %s, got %s", e.field, want, raw)
	}
	if d.kind == kindString {
		e.strs = append(e.strs, s)
		return nil
	}
	v, ok := e.field.ValueByName(s)
	if !ok {
		return errf("unknown %s %q (want one of %s)", d.enum.noun, s, strings.Join(e.field.ValueNames(), ", "))
	}
	e.ints = append(e.ints, v)
	return nil
}
