package archive

import (
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/tools"
)

// Filter is this package's selective test predicate: the fixed-form
// conjunction the archive tests pin zone-map pruning with (they cannot
// import internal/query, whose compiled ASTs are the production Predicates).
//
// It is a conjunction of predicates over archived scans. The zero value
// matches everything. Each populated field both narrows the per-scan match
// and, where the zone maps carry enough information, lets the reader skip
// whole blocks without decompressing them (MatchBlock).
type Filter struct {
	// Years restricts to scans whose start time falls in one of the given
	// UTC calendar years. Empty means all years.
	Years []int
	// Tools restricts to the given tool attributions. Empty means all.
	Tools []tools.Tool
	// Ports restricts to scans targeting at least one of the given ports.
	// Empty means all.
	Ports []uint16
	// SrcPrefix, when non-nil, restricts to sources inside the prefix.
	SrcPrefix *inetmodel.Prefix
	// MinRate and MaxRate bound the extrapolated rate (pps). Zero means
	// unbounded on that side.
	MinRate, MaxRate float64
	// QualifiedOnly drops sub-threshold flows.
	QualifiedOnly bool
}

// Fields implements Predicate: a Filter says nothing about its consumer, so
// the decode is full.
func (f *Filter) Fields() Fields { return AllFields }

// MatchFields implements Predicate: the strips the populated fields read.
func (f *Filter) MatchFields() Fields {
	var m Fields
	if f.QualifiedOnly || len(f.Tools) > 0 {
		m |= FieldTool
	}
	if f.MinRate > 0 || f.MaxRate > 0 {
		m |= FieldRate
	}
	if f.SrcPrefix != nil {
		m |= FieldSrc
	}
	if len(f.Years) > 0 {
		m |= FieldStart
	}
	if len(f.Ports) > 0 {
		m |= FieldPorts
	}
	return m
}

// Match implements Predicate; a Filter never inspects origins.
func (f *Filter) Match(sc *core.Scan, _ *enrich.Origin) bool { return f.MatchScan(sc) }

// MatchScan reports whether one decoded scan satisfies every predicate.
func (f *Filter) MatchScan(sc *core.Scan) bool {
	if f.QualifiedOnly && !sc.Qualified {
		return false
	}
	if f.MinRate > 0 && sc.RatePPS < f.MinRate {
		return false
	}
	if f.MaxRate > 0 && sc.RatePPS > f.MaxRate {
		return false
	}
	if f.SrcPrefix != nil && !f.SrcPrefix.Contains(sc.Src) {
		return false
	}
	if len(f.Years) > 0 {
		y := YearOf(sc.Start)
		ok := false
		for _, want := range f.Years {
			if y == want {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(f.Tools) > 0 {
		ok := false
		for _, t := range f.Tools {
			if sc.Tool == t {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(f.Ports) > 0 {
		ok := false
		for _, want := range f.Ports {
			if scanHasPort(sc, want) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// scanHasPort binary-searches the scan's ascending port list.
func scanHasPort(sc *core.Scan, p uint16) bool {
	lo, hi := 0, len(sc.Ports)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case sc.Ports[mid] == p:
			return true
		case sc.Ports[mid] < p:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// MatchBlock reports whether the block behind z could contain a matching
// scan. False proves no scan in the block matches; true only means the
// block must be decoded (zone maps and the port fingerprint are
// conservative).
func (f *Filter) MatchBlock(z *ZoneMap) bool {
	if f.QualifiedOnly && z.Qualified == 0 {
		return false
	}
	if len(f.Years) > 0 {
		ok := false
		for _, y := range f.Years {
			if y >= int(z.MinYear) && y <= int(z.MaxYear) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(f.Tools) > 0 {
		var want uint16
		for _, t := range f.Tools {
			want |= 1 << uint(t)
		}
		if z.ToolBits&want == 0 {
			return false
		}
	}
	if len(f.Ports) > 0 {
		ok := false
		for _, p := range f.Ports {
			if z.PortsFP&portBit(p) != 0 {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if f.SrcPrefix != nil {
		if f.SrcPrefix.Last() < z.MinSrc || f.SrcPrefix.First() > z.MaxSrc {
			return false
		}
	}
	return true
}
