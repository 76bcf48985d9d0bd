package query

import (
	"sort"
	"strconv"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
)

// Hard caps on request shape. Every cap violation is a ClientError (a 400,
// never a panic or an unbounded allocation): the parser enforces the
// structural ones before building nodes, and Validate re-checks everything
// for programmatically built queries.
const (
	// maxDepth bounds filter-tree nesting.
	maxDepth = 32
	// maxNodes bounds total filter-tree size.
	maxNodes = 4096
	// maxInValues bounds one set-membership list.
	maxInValues = 4096
	// maxTopK bounds a top_k capacity request.
	maxTopK = 65536
	// maxQuantiles bounds the quantile list of one aggregate.
	maxQuantiles = 32
	// maxGroupBy bounds grouping dimensions.
	maxGroupBy = 4
	// maxAggs bounds aggregates per query.
	maxAggs = 16
	// maxSelectLimit bounds a select-mode row limit.
	maxSelectLimit = 100000
)

// maxGroups bounds distinct groups materialized during execution; a query
// that exceeds it (e.g. grouping a decade by ASN with no filter) fails with
// a ClientError rather than exhausting memory. A variable so tests can
// exercise the cap without building a million groups.
var maxGroups = 1 << 20

// AggOp names an aggregation operator.
type AggOp uint8

const (
	aggInvalid AggOp = iota
	// OpCount counts matching scans (per group).
	OpCount
	// OpSum sums a numeric field exactly.
	OpSum
	// OpCountDistinct counts distinct field values exactly (set-based;
	// mergeable by union). Use for analyses that must be exact, e.g. the
	// per-type distinct-source table.
	OpCountDistinct
	// OpApproxDistinct estimates distinct field values with HyperLogLog
	// (16 KiB per group, ~0.81% error, mergeable by register max).
	OpApproxDistinct
	// OpTopK tracks the k heaviest field values per group (Space-Saving).
	OpTopK
	// OpQuantile reports quantiles of a numeric field (exact: per-group
	// float64 samples, merged by concatenation, sorted once at the end).
	OpQuantile
)

var aggOpNames = map[AggOp]string{
	OpCount: "count", OpSum: "sum", OpCountDistinct: "count_distinct",
	OpApproxDistinct: "approx_distinct", OpTopK: "top_k", OpQuantile: "quantile",
}

var aggOpsByName = func() map[string]AggOp {
	m := make(map[string]AggOp, len(aggOpNames))
	for op, n := range aggOpNames {
		m[n] = op
	}
	return m
}()

// String returns the operator's wire name.
func (op AggOp) String() string {
	if n, ok := aggOpNames[op]; ok {
		return n
	}
	return "op(" + strconv.Itoa(int(op)) + ")"
}

// AggOpByName resolves a wire name.
func AggOpByName(s string) (AggOp, bool) {
	op, ok := aggOpsByName[s]
	return op, ok
}

// Agg is one aggregate to compute per group.
type Agg struct {
	// Op selects the operator.
	Op AggOp
	// Field is the operand (unused for OpCount).
	Field Field
	// K is the capacity for OpTopK.
	K int
	// Qs are the requested quantiles for OpQuantile, each in [0, 1].
	Qs []float64
}

// OrderBy selects result-row ordering for aggregate queries.
type OrderBy uint8

const (
	// OrderDefault sorts by the first aggregate's scalar descending, ties
	// by group key ascending — the paper's "top N by volume" table shape.
	OrderDefault OrderBy = iota
	// OrderKey sorts by group key ascending (year series, port lists).
	OrderKey
)

// Query is one analytical request: an optional filter, optional grouping,
// and the aggregates to compute. With no GroupBy and no Aggs the query runs
// in select mode, streaming matching scans up to Limit.
type Query struct {
	// Where filters scans; nil matches everything.
	Where Expr
	// GroupBy are the grouping dimensions (empty = one global group).
	GroupBy []Field
	// Aggs are the aggregates per group.
	Aggs []Agg
	// Order picks aggregate-row ordering.
	Order OrderBy
	// Limit caps returned rows (select mode: scans; aggregate mode: groups
	// after sorting). Zero means the mode's default.
	Limit int
}

// SelectMode reports whether the query streams raw scans (no grouping, no
// aggregates) rather than aggregate rows.
func (q *Query) SelectMode() bool { return len(q.GroupBy) == 0 && len(q.Aggs) == 0 }

// Validate rejects malformed queries with a ClientError. Parse-produced
// queries are already validated; call this on programmatically built ones.
func (q *Query) Validate() error {
	if q.Where != nil {
		depth, nodes := exprShape(q.Where)
		if depth > maxDepth {
			return errf("filter nesting depth %d exceeds %d", depth, maxDepth)
		}
		if nodes > maxNodes {
			return errf("filter has %d nodes, exceeds %d", nodes, maxNodes)
		}
		if err := q.Where.validate(); err != nil {
			return err
		}
	}
	if len(q.GroupBy) > maxGroupBy {
		return errf("group_by has %d fields, exceeds %d", len(q.GroupBy), maxGroupBy)
	}
	seen := map[Field]bool{}
	for _, f := range q.GroupBy {
		if !f.can(capGroup) {
			return errf("field %s is not groupable", f)
		}
		if seen[f] {
			return errf("duplicate group_by field %s", f)
		}
		seen[f] = true
	}
	if len(q.Aggs) > maxAggs {
		return errf("query has %d aggregates, exceeds %d", len(q.Aggs), maxAggs)
	}
	if q.SelectMode() {
		if q.Limit < 0 || q.Limit > maxSelectLimit {
			return errf("limit %d out of range [0, %d]", q.Limit, maxSelectLimit)
		}
		return nil
	}
	if len(q.Aggs) == 0 {
		return errf("group_by requires at least one aggregate")
	}
	if q.Limit < 0 {
		return errf("limit %d out of range", q.Limit)
	}
	for i := range q.Aggs {
		if err := q.Aggs[i].validate(); err != nil {
			return err
		}
	}
	return nil
}

func (a *Agg) validate() error {
	switch a.Op {
	case OpCount:
		if a.Field != fInvalid {
			return errf("count takes no field")
		}
	case OpSum:
		if !a.Field.def().numeric() {
			return errf("sum: field %s is not numeric", a.Field)
		}
	case OpCountDistinct, OpApproxDistinct:
		if !a.Field.can(capDistinct) {
			return errf("%s: field %s is not distinct-countable", a.Op, a.Field)
		}
	case OpTopK:
		if !a.Field.can(capTopK) {
			return errf("top_k: field %s is not rankable", a.Field)
		}
		if a.K < 1 || a.K > maxTopK {
			return errf("top_k: k=%d out of range [1, %d]", a.K, maxTopK)
		}
	case OpQuantile:
		if !a.Field.def().numeric() {
			return errf("quantile: field %s is not numeric", a.Field)
		}
		if len(a.Qs) == 0 {
			return errf("quantile: no quantiles requested")
		}
		if len(a.Qs) > maxQuantiles {
			return errf("quantile: %d quantiles exceeds %d", len(a.Qs), maxQuantiles)
		}
		for _, v := range a.Qs {
			if !(v >= 0 && v <= 1) {
				return errf("quantile: q=%v out of [0, 1]", v)
			}
		}
	default:
		return errf("unknown aggregate operator")
	}
	if a.Op != OpTopK && a.K != 0 {
		return errf("%s takes no k", a.Op)
	}
	if a.Op != OpQuantile && len(a.Qs) != 0 {
		return errf("%s takes no quantiles", a.Op)
	}
	return nil
}

// Canonicalize returns the query in normal form: filter lists sorted and
// deduped, and/or flattened, double negation removed, quantile lists sorted.
// Two semantically identical requests canonicalize to equal Keys, so they
// share one result-cache entry. The receiver is not modified.
func (q *Query) Canonicalize() *Query {
	c := &Query{
		GroupBy: append([]Field(nil), q.GroupBy...),
		Order:   q.Order,
		Limit:   q.Limit,
	}
	if q.Where != nil {
		c.Where = q.Where.canon()
	}
	c.Aggs = make([]Agg, len(q.Aggs))
	for i, a := range q.Aggs {
		ca := Agg{Op: a.Op, Field: a.Field, K: a.K}
		if len(a.Qs) > 0 {
			ca.Qs = append([]float64(nil), a.Qs...)
			sort.Float64s(ca.Qs)
			// Dedupe: repeated quantiles add rows but not information.
			out := ca.Qs[:0]
			for i, v := range ca.Qs {
				if i == 0 || v != ca.Qs[i-1] {
					out = append(out, v)
				}
			}
			ca.Qs = out
		}
		c.Aggs[i] = ca
	}
	return c
}

// Key renders a canonicalized query as a deterministic string, suitable as
// a result-cache key (prefix it with the catalog generation token): its
// /v1/query wire form, which Parse reads back as the same query. A query
// with no wire form keys as empty; Validate rejects it. Canonicalize first:
// Key reflects the receiver as-is.
func (q *Query) Key() string {
	wire, _ := q.MarshalJSON()
	return string(wire)
}

// NeedsOrigin reports whether executing q requires enrichment origins
// (origin-field grouping or aggregation; origin filters degrade to
// non-matching on origin-less sources instead). Servers use it to reject
// origin queries against origin-less archives up front.
func (q *Query) NeedsOrigin() bool {
	for _, f := range q.GroupBy {
		if f.def().needsOrigin() {
			return true
		}
	}
	for _, a := range q.Aggs {
		if a.Field.def().needsOrigin() {
			return true
		}
	}
	return false
}

// predicate compiles the query for the archive reader: the planner step. It
// carries the filter tree's zone-map pushdown (Expr.matchBlock), so the
// reader skips blocks no scan of which can match without decompressing them,
// and the projection — which strips the filter, the grouping and the
// aggregates read — so the reader inflates and parses nothing else. The
// filter's own strips are what the reader decodes first and runs the filter
// over. A nil Where matches everything and reads nothing.
type predicate struct {
	where  Expr
	fields archive.Fields
	filter archive.Fields
}

// Predicate returns the compiled pushdown predicate for q.
func (q *Query) Predicate() archive.Predicate {
	p := &predicate{where: q.Where}
	if q.Where != nil {
		p.filter = q.Where.reads()
	}
	if q.SelectMode() {
		p.fields = archive.AllFields // the rows are the scans themselves
		return p
	}
	p.fields = p.filter
	for _, f := range q.GroupBy {
		p.fields |= f.def().reads
	}
	for _, a := range q.Aggs {
		p.fields |= a.Field.def().reads
	}
	return p
}

func (p *predicate) Fields() archive.Fields { return p.fields }

func (p *predicate) MatchFields() archive.Fields { return p.filter }

func (p *predicate) MatchBlock(z *archive.ZoneMap) bool {
	if p.where == nil {
		return true
	}
	return p.where.matchBlock(z)
}

func (p *predicate) Match(sc *core.Scan, o *enrich.Origin) bool {
	if p.where == nil {
		return true
	}
	return p.where.match(sc, o)
}
