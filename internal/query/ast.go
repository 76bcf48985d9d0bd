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
// /v1/query (the legacy fixed-parameter endpoints compile onto the same
// AST), the synscan facade exposes a fluent builder, and the batch analyses
// in internal/analysis execute through the same engine.
package query

import (
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
	// reads names the variable-size record parts match touches.
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

// ---- set-membership leaves ----

// inExpr matches scans whose field value is in the set. For FieldPort the
// semantics are "targets at least one of" (the paper's port filters). Ints
// carries year/tool/port/asn/type values; Strs carries country/org values.
type inExpr struct {
	field Field
	ints  []uint64
	strs  []string
}

// YearIn matches scans starting in one of the given UTC calendar years.
func YearIn(years ...int) Expr {
	e := &inExpr{field: FieldYear}
	for _, y := range years {
		e.ints = append(e.ints, uint64(uint16(y)))
	}
	return e
}

// ToolIn matches scans attributed to one of the given tools.
func ToolIn(ts ...tools.Tool) Expr {
	e := &inExpr{field: FieldTool}
	for _, t := range ts {
		e.ints = append(e.ints, uint64(t))
	}
	return e
}

// PortAny matches scans targeting at least one of the given ports.
func PortAny(ports ...uint16) Expr {
	e := &inExpr{field: FieldPort}
	for _, p := range ports {
		e.ints = append(e.ints, uint64(p))
	}
	return e
}

// ASNIn matches scans whose origin ASN is one of the given values.
func ASNIn(asns ...uint32) Expr {
	e := &inExpr{field: FieldASN}
	for _, a := range asns {
		e.ints = append(e.ints, uint64(a))
	}
	return e
}

// ISNIn matches scans whose ISN regularity class is one of the given values.
func ISNIn(cs ...fingerprint.ISNClass) Expr {
	e := &inExpr{field: FieldISN}
	for _, c := range cs {
		e.ints = append(e.ints, uint64(c))
	}
	return e
}

// TypeIn matches scans whose origin scanner type is one of the given values.
func TypeIn(ts ...inetmodel.ScannerType) Expr {
	e := &inExpr{field: FieldType}
	for _, t := range ts {
		e.ints = append(e.ints, uint64(t))
	}
	return e
}

// CountryIn matches scans whose origin country is one of the given ISO codes.
func CountryIn(codes ...string) Expr {
	return &inExpr{field: FieldCountry, strs: append([]string(nil), codes...)}
}

// OrgIn matches scans whose origin organization name is one of the given.
func OrgIn(names ...string) Expr {
	return &inExpr{field: FieldOrg, strs: append([]string(nil), names...)}
}

func (e *inExpr) match(sc *core.Scan, o *enrich.Origin) bool {
	switch e.field {
	case FieldYear:
		return containsInt(e.ints, uint64(uint16(archive.YearOf(sc.Start))))
	case FieldTool:
		return containsInt(e.ints, uint64(sc.Tool))
	case FieldPort:
		for _, p := range sc.Ports {
			if containsInt(e.ints, uint64(p)) {
				return true
			}
		}
		return false
	case FieldISN:
		return containsInt(e.ints, uint64(sc.ISN))
	case FieldASN:
		return o != nil && containsInt(e.ints, uint64(o.ASN))
	case FieldType:
		return o != nil && containsInt(e.ints, uint64(o.Type))
	case FieldCountry:
		return o != nil && containsStr(e.strs, o.Country)
	case FieldOrg:
		return o != nil && containsStr(e.strs, o.OrgName)
	}
	return false
}

// containsInt binary-searches when the list is canonical (sorted), and falls
// back to linear scan otherwise; lists are tiny either way.
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

func (e *inExpr) matchBlock(z *archive.ZoneMap) bool {
	switch e.field {
	case FieldYear:
		for _, y := range e.ints {
			if y >= uint64(z.MinYear) && y <= uint64(z.MaxYear) {
				return true
			}
		}
		return false
	case FieldTool:
		var want uint16
		for _, t := range e.ints {
			want |= 1 << uint(t)
		}
		return z.ToolBits&want != 0
	case FieldPort:
		for _, p := range e.ints {
			if z.MayContainPort(uint16(p)) {
				return true
			}
		}
		return false
	}
	// Origin fields carry no zone-map summary.
	return true
}

func (e *inExpr) canon() Expr {
	c := &inExpr{field: e.field}
	if len(e.ints) > 0 {
		c.ints = append([]uint64(nil), e.ints...)
		sort.Slice(c.ints, func(i, j int) bool { return c.ints[i] < c.ints[j] })
		c.ints = dedupInts(c.ints)
	}
	if len(e.strs) > 0 {
		c.strs = append([]string(nil), e.strs...)
		sort.Strings(c.strs)
		c.strs = dedupStrs(c.strs)
	}
	return c
}

func dedupInts(xs []uint64) []uint64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func dedupStrs(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func (e *inExpr) appendKey(b []byte) []byte {
	b = append(b, "in:"...)
	b = append(b, e.field.String()...)
	b = append(b, '(')
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
	switch e.field {
	case FieldYear:
		for _, y := range e.ints {
			if y > 65535 {
				return errf("year %d out of range", y)
			}
		}
	case FieldTool:
		for _, t := range e.ints {
			if t >= uint64(tools.NumTools()) {
				return errf("tool value %d out of range", t)
			}
		}
	case FieldPort:
		for _, p := range e.ints {
			if p > 65535 {
				return errf("port %d out of range", p)
			}
		}
	case FieldASN:
		for _, a := range e.ints {
			if a > 1<<32-1 {
				return errf("asn %d out of range", a)
			}
		}
	case FieldType:
		for _, t := range e.ints {
			if t > uint64(len(inetmodel.ScannerTypes)) {
				return errf("scanner type value %d out of range", t)
			}
		}
	case FieldISN:
		for _, c := range e.ints {
			if c > uint64(fingerprint.ISNMixed) {
				return errf("isn class value %d out of range", c)
			}
		}
	case FieldCountry, FieldOrg:
		if len(e.ints) > 0 {
			return errf("%s takes string values", e.field)
		}
	default:
		return errf("field %s does not support set membership", e.field)
	}
	return nil
}

func (e *inExpr) reads() archive.Fields { return e.field.reads() }

// ---- qualified flag ----

type qualExpr struct{ want bool }

// Qualified matches scans whose over-threshold flag equals want.
func Qualified(want bool) Expr { return &qualExpr{want: want} }

func (e *qualExpr) match(sc *core.Scan, _ *enrich.Origin) bool {
	return sc.Qualified == e.want
}

func (e *qualExpr) matchBlock(z *archive.ZoneMap) bool {
	if e.want {
		return z.Qualified > 0
	}
	return z.Qualified < z.Scans
}

func (e *qualExpr) canon() Expr { return e }

func (e *qualExpr) appendKey(b []byte) []byte {
	if e.want {
		return append(b, "qual(1)"...)
	}
	return append(b, "qual(0)"...)
}

func (e *qualExpr) validate() error { return nil }

func (e *qualExpr) reads() archive.Fields { return 0 }

// ---- two-phase flag ----

type twoPhaseExpr struct{ want bool }

// TwoPhaseIs matches scans whose two-phase (scout + handshake) flag equals
// want. Blocks prune through the zone map's saturating two-phase counter;
// archives written before the phase extension carry a zero counter, so a
// want=true filter skips them wholesale.
func TwoPhaseIs(want bool) Expr { return &twoPhaseExpr{want: want} }

func (e *twoPhaseExpr) match(sc *core.Scan, _ *enrich.Origin) bool {
	return sc.TwoPhase == e.want
}

func (e *twoPhaseExpr) matchBlock(z *archive.ZoneMap) bool {
	if e.want {
		return z.TwoPhase > 0
	}
	// The counter saturates, so equality with Scans only proves "all
	// two-phase" while it is below the cap; at the cap we must decode.
	return uint32(z.TwoPhase) < z.Scans || z.TwoPhase == 65535
}

func (e *twoPhaseExpr) canon() Expr { return e }

func (e *twoPhaseExpr) appendKey(b []byte) []byte {
	if e.want {
		return append(b, "twophase(1)"...)
	}
	return append(b, "twophase(0)"...)
}

func (e *twoPhaseExpr) validate() error { return nil }

func (e *twoPhaseExpr) reads() archive.Fields { return 0 }

// ---- source prefix ----

type prefixExpr struct{ pfx inetmodel.Prefix }

// SrcIn matches scans whose source address falls inside the prefix.
func SrcIn(pfx inetmodel.Prefix) Expr { return &prefixExpr{pfx: pfx} }

func (e *prefixExpr) match(sc *core.Scan, _ *enrich.Origin) bool {
	return e.pfx.Contains(sc.Src)
}

func (e *prefixExpr) matchBlock(z *archive.ZoneMap) bool {
	return e.pfx.Last() >= z.MinSrc && e.pfx.First() <= z.MaxSrc
}

func (e *prefixExpr) canon() Expr { return e }

func (e *prefixExpr) appendKey(b []byte) []byte {
	b = append(b, "src("...)
	b = append(b, e.pfx.String()...)
	return append(b, ')')
}

func (e *prefixExpr) validate() error {
	if e.pfx.Bits > 32 {
		return errf("src prefix length %d out of range", e.pfx.Bits)
	}
	return nil
}

func (e *prefixExpr) reads() archive.Fields { return 0 }

// ---- time range ----

// timeExpr bounds the scan start time in nanoseconds; nil means open.
type timeExpr struct{ min, max *int64 }

// TimeBetween matches scans starting in [minNS, maxNS].
func TimeBetween(minNS, maxNS int64) Expr {
	return &timeExpr{min: &minNS, max: &maxNS}
}

func (e *timeExpr) match(sc *core.Scan, _ *enrich.Origin) bool {
	if e.min != nil && sc.Start < *e.min {
		return false
	}
	if e.max != nil && sc.Start > *e.max {
		return false
	}
	return true
}

func (e *timeExpr) matchBlock(z *archive.ZoneMap) bool {
	if e.min != nil && z.MaxStart < *e.min {
		return false
	}
	if e.max != nil && z.MinStart > *e.max {
		return false
	}
	return true
}

func (e *timeExpr) canon() Expr { return e }

func (e *timeExpr) appendKey(b []byte) []byte {
	b = append(b, "time("...)
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
		return errf("time range needs min_ns or max_ns")
	}
	if e.min != nil && e.max != nil && *e.min > *e.max {
		return errf("time range min_ns > max_ns")
	}
	return nil
}

func (e *timeExpr) reads() archive.Fields { return 0 }

// ---- numeric range ----

// rangeExpr bounds a numeric field; nil means open. Ranges carry no
// zone-map summary (beyond time/year/src, which have their own leaves), so
// they filter per scan only.
type rangeExpr struct {
	field    Field
	min, max *float64
}

// NumRange matches scans whose numeric field lies in [min, max]; pass nil
// for an open side.
func NumRange(f Field, min, max *float64) Expr {
	return &rangeExpr{field: f, min: min, max: max}
}

// RateBetween bounds the extrapolated rate (pps); a non-positive side is
// open, mirroring the legacy minrate/maxrate parameters.
func RateBetween(min, max float64) Expr {
	e := &rangeExpr{field: FieldRate}
	if min > 0 {
		e.min = &min
	}
	if max > 0 {
		e.max = &max
	}
	return e
}

func (e *rangeExpr) match(sc *core.Scan, _ *enrich.Origin) bool {
	v := numValue(e.field, sc, 1)
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
	b = append(b, "rng:"...)
	b = append(b, e.field.String()...)
	b = append(b, '(')
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
	if !e.field.numeric() {
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

func (e *rangeExpr) reads() archive.Fields { return e.field.reads() }

// exprDepth returns the tree depth, for the parser's nesting cap.
func exprDepth(e Expr) int {
	switch n := e.(type) {
	case *andExpr:
		return 1 + maxKidDepth(n.kids)
	case *orExpr:
		return 1 + maxKidDepth(n.kids)
	case *notExpr:
		return 1 + exprDepth(n.kid)
	}
	return 1
}

func maxKidDepth(kids []Expr) int {
	d := 0
	for _, k := range kids {
		if kd := exprDepth(k); kd > d {
			d = kd
		}
	}
	return d
}

// exprString renders an expression for error messages and debugging.
func exprString(e Expr) string {
	if e == nil {
		return "true"
	}
	return exprKey(e)
}
