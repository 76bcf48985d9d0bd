package query

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/fingerprint"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/tools"
)

// Field names a queryable campaign attribute. Everything the engine knows
// about one — wire name, value kind, which operators accept it, how its value
// is read from a scan, what a zone map proves about it — is its row in the
// fields table below; an unsupported (operator, field) pair is a client error
// at validation time, never a silent zero.
type Field uint8

const (
	fInvalid       Field = iota
	FieldYear            // UTC calendar year of the scan's start time
	FieldTool            // fingerprinted tool attribution
	FieldPort            // targeted destination port; multi-port scans explode
	FieldQualified       // over-threshold campaign flag
	FieldSrc             // source address, filtered by CIDR prefix
	FieldTime            // start time (ns), filtered by range
	FieldRate            // extrapolated rate (pps)
	FieldPackets         // observed probe count
	FieldDsts            // distinct telescope addresses hit
	FieldNPorts          // number of distinct ports targeted
	FieldDuration        // observed duration (seconds)
	FieldCoverage        // estimated IPv4 coverage fraction
	// Origin fields (need an archive written with origins; scans without an
	// origin never match origin filters and are skipped by origin group-bys).
	FieldCountry // ISO country code
	FieldASN     // announcing autonomous system
	FieldType    // scanner-type classification
	FieldOrg     // institutional organization name
	// Reactive (two-phase) fields: zero on campaigns captured passively.
	FieldTwoPhase         // two-phase (scout + handshake) campaign flag
	FieldISN              // ISN regularity class (unknown/irregular/regular/mixed)
	FieldLinkedDsts       // destinations probed in both phases
	FieldHandshakePackets // phase-two segment count
	FieldPayloadBytes     // application payload bytes received
)

// kind is a field's value kind. It decides which filter leaf the field takes
// and how its values are validated, parsed, marshaled and rendered.
type kind uint8

const (
	kindEnum   kind = iota + 1 // named values; "in"/"eq" by display name
	kindInt                    // bounded integer; "in"/"eq"
	kindString                 // string; "in"/"eq"
	kindBool                   // flag; "eq" boolean
	kindNum                    // number; "min"/"max"
	kindPrefix                 // IPv4 address; CIDR "prefix"
	kindTime                   // nanosecond timestamp; "min_ns"/"max_ns"
)

// caps are the operators a field accepts beyond its kind's filter leaf. Sum
// and quantile are not bits: they accept exactly the fields with a numeric
// accessor (ival or fval), and a sum is an exact integer when it is ival.
type caps uint8

const (
	capGroup    caps = 1 << iota // group_by
	capDistinct                  // count_distinct, approx_distinct
	capTopK                      // top_k: integer-keyed, so partial trackers merge by key
)

// enum is a named-value kind: values 0..n-1, each with a display name.
type enum struct {
	noun, want string              // error text: "unknown <noun>", "want <want>"
	n          uint64              // number of values
	name       func(uint64) string // the value type's own String
	byName     map[string]uint64   // lower-cased display name → value
}

func newEnum(noun, want string, n uint64, name func(uint64) string) *enum {
	e := &enum{noun: noun, want: want, n: n, name: name, byName: map[string]uint64{}}
	for v := uint64(0); v < n; v++ {
		e.byName[strings.ToLower(name(v))] = v
	}
	return e
}

// Each enum lists every value of its type, so whatever a result renders as a
// key parses back as a filter value.
var (
	toolEnum = newEnum("tool", "a tool name", uint64(tools.NumTools()),
		func(v uint64) string { return tools.Tool(v).String() })
	typeEnum = newEnum("scanner type", "a scanner-type name", uint64(inetmodel.TypeReserved)+1,
		func(v uint64) string { return inetmodel.ScannerType(v).String() })
	isnEnum = newEnum("isn class", "a class name", uint64(fingerprint.ISNMixed)+1,
		func(v uint64) string { return fingerprint.ISNClass(v).String() })
)

type (
	intFn  = func(*core.Scan, *enrich.Origin) uint64
	numFn  = func(*core.Scan, *enrich.Origin) float64
	zoneFn = func(z *archive.ZoneMap, lo, hi int64) bool
)

// fieldDef is one row of the field table.
type fieldDef struct {
	name  string
	kind  kind
	caps  caps
	enum  *enum          // kindEnum: the value list
	max   uint64         // kindInt: the largest value
	reads archive.Fields // the strips the accessors and the executor read for the field

	// disc is the field's identity value: what set membership compares, the
	// group coordinate, the distinct/top-k key. Nil for port (one value per
	// targeted port: the callers loop) and for strings, which have str.
	disc intFn
	str  func(*enrich.Origin) string
	// ival or fval is the field's numeric value: what ranges compare and sums
	// and quantiles accumulate. ival skips the float round trip, so counters
	// beyond 2^53 sum exactly.
	ival intFn
	fval numFn
	// split: under port grouping the value is divided evenly (integer
	// division) across the scan's port rows, matching the exact per-port
	// packet tables.
	split bool

	// zone reports whether a block may hold a scan whose value lies in
	// [lo, hi]: false proves none does. Set and flag leaves ask one value at
	// a time (lo == hi). Nil when the zone map says nothing about the field.
	zone     zoneFn
	evidence string // what zone reads, for the documentation matrix
}

func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// A flag's identity value and its numeric value are the same 0 or 1.
func qualified(sc *core.Scan, _ *enrich.Origin) uint64 { return flag(sc.Qualified) }
func twoPhase(sc *core.Scan, _ *enrich.Origin) uint64  { return flag(sc.TwoPhase) }

// fields is the field table, indexed by Field. Row 0 (fInvalid) is empty: no
// name, no kind, no capability.
var fields = [...]fieldDef{
	FieldYear: {name: "year", kind: kindInt, max: 65535, caps: capGroup | capDistinct | capTopK,
		reads:    archive.FieldStart,
		disc:     func(sc *core.Scan, _ *enrich.Origin) uint64 { return uint64(uint16(archive.YearOf(sc.Start))) },
		zone:     func(z *archive.ZoneMap, lo, hi int64) bool { return hi >= int64(z.MinYear) && lo <= int64(z.MaxYear) },
		evidence: "year range"},
	FieldTool: {name: "tool", kind: kindEnum, enum: toolEnum, caps: capGroup | capDistinct | capTopK,
		reads:    archive.FieldTool,
		disc:     func(sc *core.Scan, _ *enrich.Origin) uint64 { return uint64(sc.Tool) },
		zone:     func(z *archive.ZoneMap, v, _ int64) bool { return z.ToolBits>>uint(v)&1 != 0 },
		evidence: "tool bits"},
	FieldPort: {name: "port", kind: kindInt, max: 65535, caps: capGroup | capDistinct | capTopK,
		reads:    archive.FieldPorts,
		zone:     func(z *archive.ZoneMap, v, _ int64) bool { return z.MayContainPort(uint16(v)) },
		evidence: "port fingerprint"},
	FieldQualified: {name: "qualified", kind: kindBool, caps: capGroup,
		reads: archive.FieldTool,
		disc:  qualified, ival: qualified,
		zone: func(z *archive.ZoneMap, v, _ int64) bool {
			if v != 0 {
				return z.Qualified > 0
			}
			return z.Qualified < z.Scans
		},
		evidence: "qualified count"},
	FieldSrc: {name: "src", kind: kindPrefix, caps: capDistinct | capTopK,
		reads:    archive.FieldSrc,
		disc:     func(sc *core.Scan, _ *enrich.Origin) uint64 { return uint64(sc.Src) },
		zone:     func(z *archive.ZoneMap, lo, hi int64) bool { return hi >= int64(z.MinSrc) && lo <= int64(z.MaxSrc) },
		evidence: "source range"},
	FieldTime: {name: "time", kind: kindTime, reads: archive.FieldStart,
		disc:     func(sc *core.Scan, _ *enrich.Origin) uint64 { return uint64(sc.Start) },
		zone:     func(z *archive.ZoneMap, lo, hi int64) bool { return hi >= z.MinStart && lo <= z.MaxStart },
		evidence: "start-time range"},
	FieldRate: {name: "rate_pps", kind: kindNum, reads: archive.FieldRate,
		fval: func(sc *core.Scan, _ *enrich.Origin) float64 { return sc.RatePPS }},
	FieldPackets: {name: "packets", kind: kindNum, split: true, reads: archive.FieldPackets,
		ival: func(sc *core.Scan, _ *enrich.Origin) uint64 { return sc.Packets }},
	FieldDsts: {name: "dsts", kind: kindNum, reads: archive.FieldDsts,
		ival: func(sc *core.Scan, _ *enrich.Origin) uint64 { return uint64(sc.DistinctDsts) }},
	FieldNPorts: {name: "nports", kind: kindNum, reads: archive.FieldPorts,
		ival: func(sc *core.Scan, _ *enrich.Origin) uint64 { return uint64(len(sc.Ports)) }},
	FieldDuration: {name: "duration_s", kind: kindNum, reads: archive.FieldDuration,
		fval: func(sc *core.Scan, _ *enrich.Origin) float64 { return sc.Duration() }},
	FieldCoverage: {name: "coverage", kind: kindNum, reads: archive.FieldCoverage,
		fval: func(sc *core.Scan, _ *enrich.Origin) float64 { return sc.Coverage }},
	FieldCountry: {name: "country", kind: kindString, caps: capGroup | capDistinct,
		reads: archive.FieldCountry,
		str:   func(o *enrich.Origin) string { return o.Country }},
	FieldASN: {name: "asn", kind: kindInt, max: 1<<32 - 1, caps: capGroup | capDistinct | capTopK,
		reads: archive.FieldASN,
		disc:  func(_ *core.Scan, o *enrich.Origin) uint64 { return uint64(o.ASN) }},
	FieldType: {name: "type", kind: kindEnum, enum: typeEnum, caps: capGroup | capDistinct | capTopK,
		reads: archive.FieldASN,
		disc:  func(_ *core.Scan, o *enrich.Origin) uint64 { return uint64(o.Type) }},
	FieldOrg: {name: "org", kind: kindString, caps: capGroup | capDistinct,
		reads: archive.FieldOrg,
		str:   func(o *enrich.Origin) string { return o.OrgName }},
	FieldTwoPhase: {name: "two_phase", kind: kindBool, caps: capGroup,
		reads: archive.FieldPhase,
		disc:  twoPhase, ival: twoPhase,
		zone: func(z *archive.ZoneMap, v, _ int64) bool {
			if v != 0 {
				return z.TwoPhase > 0
			}
			// The counter saturates, so equality with Scans only proves "all
			// two-phase" while it is below the cap; at the cap we must decode.
			return uint32(z.TwoPhase) < z.Scans || z.TwoPhase == 65535
		},
		evidence: "two-phase count"},
	FieldISN: {name: "isn", kind: kindEnum, enum: isnEnum, caps: capGroup | capDistinct | capTopK,
		reads: archive.FieldPhase,
		disc:  func(sc *core.Scan, _ *enrich.Origin) uint64 { return uint64(sc.ISN) }},
	FieldLinkedDsts: {name: "linked_dsts", kind: kindNum, reads: archive.FieldPhase,
		ival: func(sc *core.Scan, _ *enrich.Origin) uint64 { return uint64(sc.LinkedDsts) }},
	FieldHandshakePackets: {name: "handshake_packets", kind: kindNum, reads: archive.FieldPhase,
		ival: func(sc *core.Scan, _ *enrich.Origin) uint64 { return sc.HandshakePackets }},
	FieldPayloadBytes: {name: "payload_bytes", kind: kindNum, reads: archive.FieldPhase,
		ival: func(sc *core.Scan, _ *enrich.Origin) uint64 { return sc.PayloadBytes }},
}

var fieldsByName = func() map[string]Field {
	m := make(map[string]Field, len(fields))
	for _, f := range Fields() {
		m[f.String()] = f
	}
	return m
}()

// Fields lists every queryable field, in declaration order.
func Fields() []Field {
	fs := make([]Field, 0, len(fields)-1)
	for f := fInvalid + 1; int(f) < len(fields); f++ {
		fs = append(fs, f)
	}
	return fs
}

// def returns f's row; a value outside the table gets the empty row.
func (f Field) def() *fieldDef {
	if int(f) < len(fields) {
		return &fields[f]
	}
	return &fields[fInvalid]
}

// String returns the field's wire name.
func (f Field) String() string {
	if n := f.def().name; n != "" {
		return n
	}
	return fmt.Sprintf("field(%d)", uint8(f))
}

// FieldByName resolves a wire name ("year", "rate_pps", ...).
func FieldByName(s string) (Field, bool) {
	f, ok := fieldsByName[s]
	return f, ok
}

// ValueByName resolves a display name of a named-value field (tool, type,
// isn), case-insensitively, to the value filters and result keys carry.
func (f Field) ValueByName(s string) (uint64, bool) {
	e := f.def().enum
	if e == nil {
		return 0, false
	}
	v, ok := e.byName[strings.ToLower(s)]
	return v, ok
}

// ValueNames lists a named-value field's lower-cased display names, sorted;
// nil for every other field.
func (f Field) ValueNames() []string {
	e := f.def().enum
	if e == nil {
		return nil
	}
	names := make([]string, 0, len(e.byName))
	for n := range e.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MarshalJSON renders the wire name, so result rows read
// {"field": "tool"} rather than an internal enum value.
func (f Field) MarshalJSON() ([]byte, error) {
	return json.Marshal(f.String())
}

// UnmarshalJSON resolves a wire name back to the enum, so result rows
// decoded from a /v1/query response (the facade's remote client does this)
// round-trip.
func (f *Field) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, ok := fieldsByName[s]
	if !ok {
		return errf("unknown field %q", s)
	}
	*f = v
	return nil
}

func (f Field) can(c caps) bool { return f.def().caps&c != 0 }

// numeric reports whether f has a numeric value: a sum/quantile operand,
// range-filterable.
func (d *fieldDef) numeric() bool { return d.ival != nil || d.fval != nil }

// needsOrigin reports whether evaluating the field requires the enrichment
// origin.
func (d *fieldDef) needsOrigin() bool { return d.reads&archive.FieldOrigin != 0 }

// stringValued reports whether f's values are strings: grouped by dictionary
// id, ordered lexically, hashed for sketch keys.
func (f Field) stringValued() bool { return f.def().kind == kindString }

// intValue is an integer field's numeric value for one scan row. portSplit is
// the scan's port-row divisor under port grouping, 1 outside it.
func (d *fieldDef) intValue(sc *core.Scan, o *enrich.Origin, portSplit int) uint64 {
	v := d.ival(sc, o)
	if d.split && portSplit > 1 {
		v /= uint64(portSplit)
	}
	return v
}

// numValue is a numeric field's value for one scan row.
func (d *fieldDef) numValue(sc *core.Scan, o *enrich.Origin, portSplit int) float64 {
	if d.ival != nil {
		return float64(d.intValue(sc, o, portSplit))
	}
	return d.fval(sc, o)
}

// render formats a discrete value for display (group keys, top-k items).
func (d *fieldDef) render(v uint64) string {
	switch d.kind {
	case kindEnum:
		return d.enum.name(v)
	case kindBool:
		return strconv.FormatBool(v != 0)
	case kindPrefix:
		return packet.FormatIPv4(uint32(v))
	}
	return strconv.FormatUint(v, 10)
}

// hashString is 64-bit FNV-1a.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
