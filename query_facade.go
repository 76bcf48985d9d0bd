package synscan

import (
	"context"

	"github.com/synscan/synscan/internal/query"
)

// Query-engine surface, re-exported. A Query is a typed request — filter
// expression, grouping dimensions, aggregates — that one streaming engine
// executes everywhere campaigns live: segment stores (with zone-map
// predicate pushdown) and in-memory YearData collections. The same engine
// backs synserve's POST /v1/query, so a query built here computes exactly
// what the service serves (see internal/query).
//
//	q, err := synscan.NewQuery().
//	        Years(2020, 2021).
//	        Qualified(true).
//	        GroupBy(synscan.FieldTool).
//	        Count().
//	        TopK(synscan.FieldPort, 10).
//	        Build()
//	res, err := synscan.RunQuery(ctx, q, view) // a *CatalogView is a QuerySource
type (
	// Query is a validated, canonicalized query (build with NewQuery or
	// ParseQuery). Its Key method yields a canonical cache key: two
	// semantically identical queries share one key.
	Query = query.Query
	// QueryBuilder assembles a Query fluently; see NewQuery.
	QueryBuilder = query.Builder
	// QueryResult is a finished query: matched count plus either selected
	// scans or aggregate rows.
	QueryResult = query.Result
	// QueryRow is one aggregate-mode result row.
	QueryRow = query.Row
	// QueryExpr is a filter-expression node (combine with QueryAnd / QueryOr
	// / QueryNot).
	QueryExpr = query.Expr
	// QueryField names a queryable campaign attribute.
	QueryField = query.Field
	// QuerySource is anything the engine can execute against under
	// predicate pushdown. A *CatalogView is one: the query's filter prunes
	// its segments' blocks via zone maps before decompression.
	QuerySource = query.Source
)

// Queryable fields: one constant per row of the query package's field table
// (DESIGN.md "Query engine" carries the capability matrix).
const (
	FieldYear             = query.FieldYear
	FieldTool             = query.FieldTool
	FieldPort             = query.FieldPort
	FieldQualified        = query.FieldQualified
	FieldSrc              = query.FieldSrc
	FieldTime             = query.FieldTime
	FieldRate             = query.FieldRate
	FieldPackets          = query.FieldPackets
	FieldDsts             = query.FieldDsts
	FieldNPorts           = query.FieldNPorts
	FieldDuration         = query.FieldDuration
	FieldCoverage         = query.FieldCoverage
	FieldCountry          = query.FieldCountry
	FieldASN              = query.FieldASN
	FieldType             = query.FieldType
	FieldOrg              = query.FieldOrg
	FieldTwoPhase         = query.FieldTwoPhase
	FieldISN              = query.FieldISN
	FieldLinkedDsts       = query.FieldLinkedDsts
	FieldHandshakePackets = query.FieldHandshakePackets
	FieldPayloadBytes     = query.FieldPayloadBytes
)

// NewQuery starts a fluent query builder (matches everything, selects scans
// until filters, group-bys, or aggregates are added).
func NewQuery() *QueryBuilder { return query.NewBuilder() }

// ParseQuery parses the compact JSON request form served at /v1/query into a
// validated Query. Malformed requests return a client error (never a panic).
func ParseQuery(data []byte) (*Query, error) { return query.Parse(data) }

// IsQueryClientError reports whether err is a 400-class request error (bad
// syntax, unknown field, out-of-range parameter) rather than an execution
// failure.
func IsQueryClientError(err error) bool { return query.IsClientError(err) }

// RunQuery executes q against the sources in order, streaming per-block
// aggregation with zone-map pushdown where the source supports it. Results
// are deterministic in source and stream order.
func RunQuery(ctx context.Context, q *Query, srcs ...QuerySource) (*QueryResult, error) {
	return query.Run(ctx, q, srcs...)
}

// YearSource adapts one simulated year's in-memory campaigns for RunQuery.
func YearSource(yd *YearData) QuerySource {
	return query.SliceSource{Scans: yd.Scans, Origins: yd.ScanOrigins}
}

// ScanSource adapts an arbitrary in-memory campaign list (e.g. an Analyzer's
// Finish output) for RunQuery. origins may be nil, or must parallel scans.
func ScanSource(scans []*Scan, origins []Origin) QuerySource {
	return query.SliceSource{Scans: scans, Origins: origins}
}

// Filter-expression constructors for QueryBuilder.Where. The builder's own
// methods (Years, Ports, Qualified, ...) cover conjunctions; these compose
// disjunctions and negations.
var (
	// QueryAnd / QueryOr / QueryNot combine filter expressions.
	QueryAnd = query.And
	QueryOr  = query.Or
	QueryNot = query.Not
	// Leaf predicates over campaign fields.
	QueryYearIn      = query.YearIn
	QueryToolIn      = query.ToolIn
	QueryPortAny     = query.PortAny
	QueryQualified   = query.Qualified
	QueryTwoPhaseIs  = query.TwoPhaseIs
	QueryRateBetween = query.RateBetween
	QueryTimeBetween = query.TimeBetween
	QuerySrcIn       = query.SrcIn
	QueryASNIn       = query.ASNIn
	QueryTypeIn      = query.TypeIn
	QueryISNIn       = query.ISNIn
	QueryCountryIn   = query.CountryIn
	QueryOrgIn       = query.OrgIn
)
