package query

import (
	"encoding/json"
	"fmt"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/fingerprint"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/tools"
)

// Field names a queryable campaign attribute. Which operations a field
// supports (filtering, grouping, numeric aggregation, distinct/top-k keying)
// is capability-checked at validation time, so an unsupported combination is
// a parse-time client error, never a silent zero.
type Field uint8

const (
	fInvalid Field = iota
	// Discrete fields: filterable by set membership, groupable.
	FieldYear      // UTC calendar year of the scan's start time
	FieldTool      // fingerprinted tool attribution
	FieldPort      // targeted destination port; multi-port scans explode
	FieldQualified // over-threshold campaign flag
	// Filter-only fields.
	FieldSrc  // source address, filtered by CIDR prefix
	FieldTime // start time (ns), filtered by range
	// Numeric fields: filterable by range, usable as aggregation operands.
	FieldRate     // extrapolated rate (pps)
	FieldPackets  // observed probe count
	FieldDsts     // distinct telescope addresses hit
	FieldNPorts   // number of distinct ports targeted
	FieldDuration // observed duration (seconds)
	FieldCoverage // estimated IPv4 coverage fraction
	// Origin fields (need an archive written with origins; scans without an
	// origin never match origin filters and are skipped by origin group-bys).
	FieldCountry // ISO country code
	FieldASN     // announcing autonomous system
	FieldType    // scanner-type classification
	FieldOrg     // institutional organization name
	// Reactive (two-phase) fields, populated by archives written with the
	// phase extension; older archives decode them as zero values, so filters
	// on them simply match nothing there.
	FieldTwoPhase         // two-phase (scout + handshake) campaign flag
	FieldISN              // ISN regularity class (unknown/irregular/regular/mixed)
	FieldLinkedDsts       // destinations probed in both phases
	FieldHandshakePackets // phase-two segment count
	FieldPayloadBytes     // application payload bytes received
)

var fieldNames = map[Field]string{
	FieldYear: "year", FieldTool: "tool", FieldPort: "port",
	FieldQualified: "qualified", FieldSrc: "src", FieldTime: "time",
	FieldRate: "rate_pps", FieldPackets: "packets", FieldDsts: "dsts",
	FieldNPorts: "nports", FieldDuration: "duration_s", FieldCoverage: "coverage",
	FieldCountry: "country", FieldASN: "asn", FieldType: "type", FieldOrg: "org",
	FieldTwoPhase: "two_phase", FieldISN: "isn", FieldLinkedDsts: "linked_dsts",
	FieldHandshakePackets: "handshake_packets", FieldPayloadBytes: "payload_bytes",
}

var fieldsByName = func() map[string]Field {
	m := make(map[string]Field, len(fieldNames))
	for f, n := range fieldNames {
		m[n] = f
	}
	return m
}()

// String returns the field's wire name.
func (f Field) String() string {
	if n, ok := fieldNames[f]; ok {
		return n
	}
	return fmt.Sprintf("field(%d)", uint8(f))
}

// FieldByName resolves a wire name ("year", "rate_pps", ...).
func FieldByName(s string) (Field, bool) {
	f, ok := fieldsByName[s]
	return f, ok
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

// groupable reports whether rows may be grouped by f.
func (f Field) groupable() bool {
	switch f {
	case FieldYear, FieldTool, FieldPort, FieldQualified,
		FieldCountry, FieldASN, FieldType, FieldOrg,
		FieldTwoPhase, FieldISN:
		return true
	}
	return false
}

// numeric reports whether f can be a sum/quantile operand or range-filtered.
func (f Field) numeric() bool {
	switch f {
	case FieldRate, FieldPackets, FieldDsts, FieldNPorts, FieldDuration,
		FieldCoverage, FieldQualified, FieldTwoPhase, FieldLinkedDsts,
		FieldHandshakePackets, FieldPayloadBytes:
		return true
	}
	return false
}

// integerValued reports whether sums over f are exact integer accumulations
// (rendered as integers, matching the exact-counter analyses).
func (f Field) integerValued() bool {
	switch f {
	case FieldPackets, FieldDsts, FieldNPorts, FieldQualified,
		FieldTwoPhase, FieldLinkedDsts, FieldHandshakePackets,
		FieldPayloadBytes:
		return true
	}
	return false
}

// distinctable reports whether count_distinct/approx_distinct accept f.
func (f Field) distinctable() bool {
	switch f {
	case FieldSrc, FieldPort, FieldYear, FieldTool, FieldASN,
		FieldCountry, FieldType, FieldOrg, FieldISN:
		return true
	}
	return false
}

// topKable reports whether top_k accepts f. Restricted to integer-keyed
// fields so partial trackers merge by key across segments.
func (f Field) topKable() bool {
	switch f {
	case FieldSrc, FieldPort, FieldYear, FieldTool, FieldASN, FieldType,
		FieldISN:
		return true
	}
	return false
}

// needsOrigin reports whether evaluating f requires the enrichment origin.
func (f Field) needsOrigin() bool {
	switch f {
	case FieldCountry, FieldASN, FieldType, FieldOrg:
		return true
	}
	return false
}

// stringValued reports whether f's values are strings: grouped by dictionary
// id, ordered lexically, hashed for sketch keys.
func (f Field) stringValued() bool { return f == FieldCountry || f == FieldOrg }

// reads names the variable-size record parts evaluating f touches, for the
// reader's projected decode.
func (f Field) reads() archive.Fields {
	switch {
	case f == FieldPort || f == FieldNPorts:
		return archive.FieldPorts
	case f.needsOrigin():
		return archive.FieldOrigin
	}
	return 0
}

// numValue extracts f's numeric value from one scan. portSplit is the
// scan's port-row divisor under port grouping: packets are split evenly
// (integer division) across the scan's port rows, matching the exact
// per-port packet tables; it is 1 outside port-grouped execution.
func numValue(f Field, sc *core.Scan, portSplit int) float64 {
	switch f {
	case FieldRate:
		return sc.RatePPS
	case FieldPackets:
		if portSplit > 1 {
			return float64(sc.Packets / uint64(portSplit))
		}
		return float64(sc.Packets)
	case FieldDsts:
		return float64(sc.DistinctDsts)
	case FieldNPorts:
		return float64(len(sc.Ports))
	case FieldDuration:
		return sc.Duration()
	case FieldCoverage:
		return sc.Coverage
	case FieldQualified:
		if sc.Qualified {
			return 1
		}
		return 0
	case FieldTwoPhase:
		if sc.TwoPhase {
			return 1
		}
		return 0
	case FieldLinkedDsts:
		return float64(sc.LinkedDsts)
	case FieldHandshakePackets:
		return float64(sc.HandshakePackets)
	case FieldPayloadBytes:
		return float64(sc.PayloadBytes)
	}
	return 0
}

// intValue is numValue for integer-valued fields, without the float round
// trip (exact for counters beyond 2^53).
func intValue(f Field, sc *core.Scan, portSplit int) uint64 {
	switch f {
	case FieldPackets:
		if portSplit > 1 {
			return sc.Packets / uint64(portSplit)
		}
		return sc.Packets
	case FieldDsts:
		return uint64(sc.DistinctDsts)
	case FieldNPorts:
		return uint64(len(sc.Ports))
	case FieldQualified:
		if sc.Qualified {
			return 1
		}
		return 0
	case FieldTwoPhase:
		if sc.TwoPhase {
			return 1
		}
		return 0
	case FieldLinkedDsts:
		return uint64(sc.LinkedDsts)
	case FieldHandshakePackets:
		return sc.HandshakePackets
	case FieldPayloadBytes:
		return sc.PayloadBytes
	}
	return 0
}

// hashString is 64-bit FNV-1a.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// renderKey formats an integer-keyed field value for display (top-k items,
// group keys).
func renderKey(f Field, v uint64) string {
	switch f {
	case FieldSrc:
		return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	case FieldTool:
		return tools.Tool(v).String()
	case FieldType:
		return inetmodel.ScannerType(v).String()
	case FieldISN:
		return fingerprint.ISNClass(v).String()
	default:
		return fmt.Sprintf("%d", v)
	}
}
