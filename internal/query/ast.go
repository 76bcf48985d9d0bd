// Package query is the analytical surface over campaign archives: a small
// typed AST of filter expressions and aggregations, a parser for a compact
// JSON request form, a planner that compiles filters onto the archive
// reader's zone-map predicate pushdown, and streaming per-block aggregation
// executors that compute group-by/top-k/distinct/quantile results during the
// scan — without ever materializing a scan list — and merge per-segment
// partial aggregates across a live store's catalog view.
//
// The paper's own analyses (§4–§6: volatility, recurrence, speed ECDFs,
// heavy-hitter rankings) are all instances of the same shape: filter the
// campaign set, group it, aggregate each group. This package makes that
// shape a first-class, servable request: synserve exposes it as POST
// /v1/query, the synscan facade exposes a fluent builder, and the batch
// analyses in internal/analysis execute through the same engine.
package query

import (
	"math"
	"slices"
	"sort"
	"strconv"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/fingerprint"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/tools"
)

// Expr is one node of a filter expression tree. Expressions are built by the
// JSON parser, the fluent Builder, or the exported constructors (And, Or,
// Not, YearIn, ...), and compile onto the archive reader's zone-map pushdown
// via Query.Predicate.
type Expr interface {
	// match decides one decoded scan (o nil when the source has no origins;
	// origin-dependent leaves never match then).
	match(sc *core.Scan, o *enrich.Origin) bool
	// matchBlock conservatively decides a zone map: false proves no scan in
	// the block matches; true only means the block must be decoded.
	matchBlock(z *archive.ZoneMap) bool
	// canon returns the normalized form (sorted/deduped lists, flattened
	// and/or, double negation eliminated).
	canon() Expr
	// appendKey appends the node's canonical encoding (assumes canon ran).
	appendKey(b []byte) []byte
	// validate rejects malformed nodes with a client error.
	validate() error
	// reads names the strips match reads.
	reads() archive.Fields
}

func exprKey(e Expr) string { return string(e.appendKey(nil)) }

// ---- combinators ----

type andExpr struct{ kids []Expr }
type orExpr struct{ kids []Expr }
type notExpr struct{ kid Expr }

// And matches scans satisfying every child expression.
func And(kids ...Expr) Expr { return &andExpr{kids: kids} }

// Or matches scans satisfying at least one child expression.
func Or(kids ...Expr) Expr { return &orExpr{kids: kids} }

// Not matches scans the child rejects. Zone-map pruning stops beneath a Not
// (the child's block answer is conservative, so its negation proves
// nothing); blocks under a Not always decode.
func Not(kid Expr) Expr { return &notExpr{kid: kid} }

func (e *andExpr) match(sc *core.Scan, o *enrich.Origin) bool {
	for _, k := range e.kids {
		if !k.match(sc, o) {
			return false
		}
	}
	return true
}

// matchBlock: a block can satisfy the conjunction only if every child admits
// it — any child proving "no scan here matches" excludes the whole And.
func (e *andExpr) matchBlock(z *archive.ZoneMap) bool {
	for _, k := range e.kids {
		if !k.matchBlock(z) {
			return false
		}
	}
	return true
}

func (e *orExpr) match(sc *core.Scan, o *enrich.Origin) bool {
	for _, k := range e.kids {
		if k.match(sc, o) {
			return true
		}
	}
	return false
}

func (e *orExpr) matchBlock(z *archive.ZoneMap) bool {
	for _, k := range e.kids {
		if k.matchBlock(z) {
			return true
		}
	}
	return false
}

func (e *notExpr) match(sc *core.Scan, o *enrich.Origin) bool {
	return !e.kid.match(sc, o)
}

// matchBlock is always true: the child's matchBlock is conservative (true
// means "might match"), so its negation cannot prove absence.
func (e *notExpr) matchBlock(*archive.ZoneMap) bool { return true }

// canonKids canonicalizes, flattens same-typed children, dedupes by key and
// sorts deterministically.
func canonKids(kids []Expr, flatten func(Expr) []Expr) []Expr {
	var flat []Expr
	for _, k := range kids {
		c := k.canon()
		if sub := flatten(c); sub != nil {
			flat = append(flat, sub...)
		} else {
			flat = append(flat, c)
		}
	}
	seen := map[string]bool{}
	out := flat[:0]
	for _, k := range flat {
		key := exprKey(k)
		if !seen[key] {
			seen[key] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return exprKey(out[i]) < exprKey(out[j]) })
	return out
}

func (e *andExpr) canon() Expr {
	kids := canonKids(e.kids, func(c Expr) []Expr {
		if a, ok := c.(*andExpr); ok {
			return a.kids
		}
		return nil
	})
	if len(kids) == 1 {
		return kids[0]
	}
	return &andExpr{kids: kids}
}

func (e *orExpr) canon() Expr {
	kids := canonKids(e.kids, func(c Expr) []Expr {
		if o, ok := c.(*orExpr); ok {
			return o.kids
		}
		return nil
	})
	if len(kids) == 1 {
		return kids[0]
	}
	return &orExpr{kids: kids}
}

func (e *notExpr) canon() Expr {
	kid := e.kid.canon()
	if n, ok := kid.(*notExpr); ok {
		return n.kid
	}
	return &notExpr{kid: kid}
}

func appendKids(b []byte, name string, kids []Expr) []byte {
	b = append(b, name...)
	b = append(b, '(')
	for i, k := range kids {
		if i > 0 {
			b = append(b, '|')
		}
		b = k.appendKey(b)
	}
	return append(b, ')')
}

func (e *andExpr) appendKey(b []byte) []byte { return appendKids(b, "and", e.kids) }
func (e *orExpr) appendKey(b []byte) []byte  { return appendKids(b, "or", e.kids) }
func (e *notExpr) appendKey(b []byte) []byte {
	b = append(b, "not("...)
	b = e.kid.appendKey(b)
	return append(b, ')')
}

func validateKids(kind string, kids []Expr) error {
	if len(kids) == 0 {
		return errf("%s needs at least one operand", kind)
	}
	for _, k := range kids {
		if err := k.validate(); err != nil {
			return err
		}
	}
	return nil
}

func (e *andExpr) validate() error { return validateKids("and", e.kids) }
func (e *orExpr) validate() error  { return validateKids("or", e.kids) }
func (e *notExpr) validate() error { return e.kid.validate() }

func kidsRead(kids []Expr) archive.Fields {
	var fs archive.Fields
	for _, k := range kids {
		fs |= k.reads()
	}
	return fs
}

func (e *andExpr) reads() archive.Fields { return kidsRead(e.kids) }
func (e *orExpr) reads() archive.Fields  { return kidsRead(e.kids) }
func (e *notExpr) reads() archive.Fields { return e.kid.reads() }

// ---- field leaves, one type per value kind ----

// leaf is what every field predicate shares: the field, and through its row
// the strips that matching reads.
type leaf struct{ field Field }

func (l leaf) reads() archive.Fields { return l.field.def().reads }

// openKey starts a leaf's canonical encoding: tag, field name, '('.
func (l leaf) openKey(b []byte, tag string) []byte {
	b = append(b, tag...)
	b = append(b, l.field.String()...)
	return append(b, '(')
}

// mayHold asks the row's zone-map test about values in [lo, hi]; a field the
// zone map says nothing about always has to be decoded.
func (l leaf) mayHold(z *archive.ZoneMap, lo, hi int64) bool {
	zone := l.field.def().zone
	return zone == nil || zone(z, lo, hi)
}

// inExpr matches scans whose field value is in the set (enum, integer and
// string fields). For FieldPort the semantics are "targets at least one of"
// (the paper's port filters). ints carries enum and integer values, strs
// string values.
type inExpr struct {
	leaf
	ints []uint64
	strs []string
}

func intsIn[T ~uint8 | ~uint16 | ~uint32](f Field, vs []T) Expr {
	e := &inExpr{leaf: leaf{f}, ints: make([]uint64, len(vs))}
	for i, v := range vs {
		e.ints[i] = uint64(v)
	}
	return e
}

// YearIn matches scans starting in one of the given UTC calendar years.
func YearIn(years ...int) Expr {
	ys := make([]uint16, len(years))
	for i, y := range years {
		ys[i] = uint16(y)
	}
	return intsIn(FieldYear, ys)
}

// ToolIn matches scans attributed to one of the given tools.
func ToolIn(ts ...tools.Tool) Expr { return intsIn(FieldTool, ts) }

// PortAny matches scans targeting at least one of the given ports.
func PortAny(ports ...uint16) Expr { return intsIn(FieldPort, ports) }

// ASNIn matches scans whose origin ASN is one of the given values.
func ASNIn(asns ...uint32) Expr { return intsIn(FieldASN, asns) }

// ISNIn matches scans whose ISN regularity class is one of the given values.
func ISNIn(cs ...fingerprint.ISNClass) Expr { return intsIn(FieldISN, cs) }

// TypeIn matches scans whose origin scanner type is one of the given values.
func TypeIn(ts ...inetmodel.ScannerType) Expr { return intsIn(FieldType, ts) }

// CountryIn matches scans whose origin country is one of the given ISO codes.
func CountryIn(codes ...string) Expr {
	return &inExpr{leaf: leaf{FieldCountry}, strs: append([]string(nil), codes...)}
}

// OrgIn matches scans whose origin organization name is one of the given.
func OrgIn(names ...string) Expr {
	return &inExpr{leaf: leaf{FieldOrg}, strs: append([]string(nil), names...)}
}

func (e *inExpr) match(sc *core.Scan, o *enrich.Origin) bool {
	d := e.field.def()
	switch {
	case o == nil && d.needsOrigin():
		return false
	case d.str != nil:
		return containsStr(e.strs, d.str(o))
	case e.field == FieldPort:
		for _, p := range sc.Ports {
			if containsInt(e.ints, uint64(p)) {
				return true
			}
		}
		return false
	}
	return containsInt(e.ints, d.disc(sc, o))
}

// containsInt scans linearly: filter lists are a handful of values.
func containsInt(xs []uint64, v uint64) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func containsStr(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// matchBlock admits the block if it may hold any one of the values.
func (e *inExpr) matchBlock(z *archive.ZoneMap) bool {
	if len(e.strs) > 0 {
		return true
	}
	for _, v := range e.ints {
		if e.mayHold(z, int64(v), int64(v)) {
			return true
		}
	}
	return false
}

func (e *inExpr) canon() Expr {
	c := &inExpr{leaf: e.leaf}
	if len(e.ints) > 0 {
		c.ints = append([]uint64(nil), e.ints...)
		slices.Sort(c.ints)
		c.ints = slices.Compact(c.ints)
	}
	if len(e.strs) > 0 {
		c.strs = append([]string(nil), e.strs...)
		slices.Sort(c.strs)
		c.strs = slices.Compact(c.strs)
	}
	return c
}

func (e *inExpr) appendKey(b []byte) []byte {
	b = e.openKey(b, "in:")
	for i, v := range e.ints {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, v, 10)
	}
	for i, s := range e.strs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, s)
	}
	return append(b, ')')
}

func (e *inExpr) validate() error {
	if len(e.ints)+len(e.strs) == 0 {
		return errf("%s: empty value set", e.field)
	}
	if len(e.ints)+len(e.strs) > maxInValues {
		return errf("%s: value set exceeds %d entries", e.field, maxInValues)
	}
	d := e.field.def()
	switch d.kind {
	case kindEnum:
		for _, v := range e.ints {
			if v >= d.enum.n {
				return errf("%s value %d out of range", d.enum.noun, v)
			}
		}
	case kindInt:
		for _, v := range e.ints {
			if v > d.max {
				return errf("%s %d out of range", e.field, v)
			}
		}
	case kindString:
	default:
		return errf("field %s does not support set membership", e.field)
	}
	return nil
}

// boolExpr matches scans whose flag equals want.
type boolExpr struct {
	leaf
	want bool
}

// Qualified matches scans whose over-threshold flag equals want.
func Qualified(want bool) Expr { return &boolExpr{leaf{FieldQualified}, want} }

// TwoPhaseIs matches scans whose two-phase (scout + handshake) flag equals
// want. Blocks prune through the zone map's saturating two-phase counter;
// archives of passive captures carry a zero counter, so a want=true filter
// skips them wholesale.
func TwoPhaseIs(want bool) Expr { return &boolExpr{leaf{FieldTwoPhase}, want} }

func (e *boolExpr) match(sc *core.Scan, o *enrich.Origin) bool {
	return (e.field.def().disc(sc, o) != 0) == e.want
}

func (e *boolExpr) matchBlock(z *archive.ZoneMap) bool {
	v := int64(flag(e.want))
	return e.mayHold(z, v, v)
}

func (e *boolExpr) canon() Expr { return e }

func (e *boolExpr) appendKey(b []byte) []byte {
	b = append(b, e.field.def().tag...)
	if e.want {
		return append(b, "(1)"...)
	}
	return append(b, "(0)"...)
}

func (e *boolExpr) validate() error { return nil }

// prefixExpr matches scans whose address falls inside the prefix.
type prefixExpr struct {
	leaf
	pfx inetmodel.Prefix
}

// SrcIn matches scans whose source address falls inside the prefix.
func SrcIn(pfx inetmodel.Prefix) Expr { return &prefixExpr{leaf{FieldSrc}, pfx} }

func (e *prefixExpr) match(sc *core.Scan, o *enrich.Origin) bool {
	return e.pfx.Contains(uint32(e.field.def().disc(sc, o)))
}

func (e *prefixExpr) matchBlock(z *archive.ZoneMap) bool {
	return e.mayHold(z, int64(e.pfx.First()), int64(e.pfx.Last()))
}

func (e *prefixExpr) canon() Expr { return e }

func (e *prefixExpr) appendKey(b []byte) []byte {
	b = e.openKey(b, "")
	b = append(b, e.pfx.String()...)
	return append(b, ')')
}

func (e *prefixExpr) validate() error {
	if e.pfx.Bits > 32 {
		return errf("%s prefix length %d out of range", e.field, e.pfx.Bits)
	}
	return nil
}

// timeExpr bounds a timestamp in nanoseconds; nil means open.
type timeExpr struct {
	leaf
	min, max *int64
}

// TimeBetween matches scans starting in [minNS, maxNS].
func TimeBetween(minNS, maxNS int64) Expr {
	return &timeExpr{leaf{FieldTime}, &minNS, &maxNS}
}

// bounds returns the range with open sides at the int64 extremes.
func (e *timeExpr) bounds() (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	if e.min != nil {
		lo = *e.min
	}
	if e.max != nil {
		hi = *e.max
	}
	return lo, hi
}

func (e *timeExpr) match(sc *core.Scan, o *enrich.Origin) bool {
	lo, hi := e.bounds()
	v := int64(e.field.def().disc(sc, o))
	return v >= lo && v <= hi
}

func (e *timeExpr) matchBlock(z *archive.ZoneMap) bool {
	lo, hi := e.bounds()
	return e.mayHold(z, lo, hi)
}

func (e *timeExpr) canon() Expr { return e }

func (e *timeExpr) appendKey(b []byte) []byte {
	b = e.openKey(b, "")
	b = appendOptInt(b, e.min)
	b = append(b, ';')
	b = appendOptInt(b, e.max)
	return append(b, ')')
}

func appendOptInt(b []byte, v *int64) []byte {
	if v == nil {
		return append(b, '*')
	}
	return strconv.AppendInt(b, *v, 10)
}

func (e *timeExpr) validate() error {
	if e.min == nil && e.max == nil {
		return errf("%s range needs min_ns or max_ns", e.field)
	}
	if e.min != nil && e.max != nil && *e.min > *e.max {
		return errf("%s range min_ns > max_ns", e.field)
	}
	return nil
}

// rangeExpr bounds a numeric field; nil means open. The zone map summarizes
// no numeric field, so ranges filter per scan only.
type rangeExpr struct {
	leaf
	min, max *float64
}

// NumRange matches scans whose numeric field lies in [min, max]; pass nil
// for an open side.
func NumRange(f Field, min, max *float64) Expr {
	return &rangeExpr{leaf{f}, min, max}
}

// RateBetween bounds the extrapolated rate (pps); a non-positive side is
// open.
func RateBetween(min, max float64) Expr {
	e := &rangeExpr{leaf: leaf{FieldRate}}
	if min > 0 {
		e.min = &min
	}
	if max > 0 {
		e.max = &max
	}
	return e
}

func (e *rangeExpr) match(sc *core.Scan, o *enrich.Origin) bool {
	v := e.field.def().numValue(sc, o, 1)
	if e.min != nil && v < *e.min {
		return false
	}
	if e.max != nil && v > *e.max {
		return false
	}
	return true
}

func (e *rangeExpr) matchBlock(*archive.ZoneMap) bool { return true }

func (e *rangeExpr) canon() Expr { return e }

func (e *rangeExpr) appendKey(b []byte) []byte {
	b = e.openKey(b, "rng:")
	b = appendOptFloat(b, e.min)
	b = append(b, ';')
	b = appendOptFloat(b, e.max)
	return append(b, ')')
}

func appendOptFloat(b []byte, v *float64) []byte {
	if v == nil {
		return append(b, '*')
	}
	return strconv.AppendFloat(b, *v, 'g', -1, 64)
}

func (e *rangeExpr) validate() error {
	if !e.field.def().numeric() {
		return errf("field %s does not support range filtering", e.field)
	}
	if e.min == nil && e.max == nil {
		return errf("%s range needs min or max", e.field)
	}
	if e.min != nil && e.max != nil && *e.min > *e.max {
		return errf("%s range min > max", e.field)
	}
	return nil
}

// exprShape walks the combinators once and returns the tree's depth and its
// node count, for the nesting and size caps.
func exprShape(e Expr) (depth, nodes int) {
	var kids []Expr
	switch n := e.(type) {
	case *andExpr:
		kids = n.kids
	case *orExpr:
		kids = n.kids
	case *notExpr:
		depth, nodes = exprShape(n.kid)
	}
	for _, k := range kids {
		d, n := exprShape(k)
		depth = max(depth, d)
		nodes += n
	}
	return depth + 1, nodes + 1
}
