// Package collab reconstructs logical distributed scans from individually
// detected campaigns. The paper shows that counting scans per source
// overstates actor counts once campaigns are sharded over many hosts
// (§4.1, §6.4: coverage modes at 1/n, /24s of collaborating academic
// scanners) and concludes that "counting scans as single-source will
// largely bias measurements; future work should take this into account."
// This package is that future work: a grouping pass over detected campaigns
// that merges shards of one logical scan.
//
// Two campaigns are considered shards of the same scan when they
//
//   - were attributed to the same tool,
//   - probed the same port set,
//   - ran over overlapping time windows with similar start times, and
//   - either originate from one /24 (coordinated infrastructure) or have
//     similar per-shard rates and sizes (equal slices of one target space).
package collab

import (
	"hash/fnv"
	"sort"
	"time"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/tools"
)

// Config tunes the grouping heuristics. The zero value gets defaults.
type Config struct {
	// MaxStartSkew is the maximum difference between shard start times
	// (default 6h — shards of one scan are launched together).
	MaxStartSkew int64
	// MinOverlap is the minimum fractional overlap of two shards' time
	// windows, relative to the shorter one (default 0.5).
	MinOverlap float64
	// MaxRateRatio bounds how much two shards' rates may differ
	// (default 3: equal slices scan at equal speeds).
	MaxRateRatio float64
}

func (c *Config) defaults() {
	if c.MaxStartSkew == 0 {
		c.MaxStartSkew = int64(6 * time.Hour)
	}
	if c.MinOverlap == 0 {
		c.MinOverlap = 0.5
	}
	if c.MaxRateRatio == 0 {
		c.MaxRateRatio = 3
	}
}

// Group is one reconstructed logical scan: one or more campaigns.
type Group struct {
	// Scans are the member campaigns, in start order.
	Scans []*core.Scan
	// Tool is the shared tool attribution.
	Tool tools.Tool
	// SameSlash24 reports whether all members share one /24.
	SameSlash24 bool
	// TotalPackets and TotalCoverage aggregate the members.
	TotalPackets  uint64
	TotalCoverage float64
}

// Sources returns the number of member campaigns (= source addresses).
func (g *Group) Sources() int { return len(g.Scans) }

// portSig hashes a campaign's sorted port list.
func portSig(ports []uint16) uint64 {
	h := fnv.New64a()
	var b [2]byte
	for _, p := range ports {
		b[0], b[1] = byte(p>>8), byte(p)
		h.Write(b[:])
	}
	return h.Sum64()
}

type bucketKey struct {
	tool  tools.Tool
	ports uint64
}

// Detect groups qualified campaigns into logical scans. Unqualified flows
// are ignored. Singleton groups (ordinary single-source scans) are included
// in the result, so len(result) is the logical scan count.
func Detect(scans []*core.Scan, cfg Config) []Group {
	cfg.defaults()

	buckets := map[bucketKey][]*core.Scan{}
	for _, sc := range scans {
		if !sc.Qualified {
			continue
		}
		k := bucketKey{sc.Tool, portSig(sc.Ports)}
		buckets[k] = append(buckets[k], sc)
	}

	// Deterministic bucket order.
	keys := make([]bucketKey, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tool != keys[j].tool {
			return keys[i].tool < keys[j].tool
		}
		return keys[i].ports < keys[j].ports
	})

	var out []Group
	for _, k := range keys {
		members := buckets[k]
		sort.Slice(members, func(i, j int) bool {
			if members[i].Start != members[j].Start {
				return members[i].Start < members[j].Start
			}
			return members[i].Src < members[j].Src
		})
		// Greedy clustering in start order: attach each scan to the first
		// open cluster it is compatible with.
		var clusters [][]*core.Scan
		for _, sc := range members {
			placed := false
			for ci := range clusters {
				if compatible(clusters[ci][0], sc, &cfg) {
					clusters[ci] = append(clusters[ci], sc)
					placed = true
					break
				}
			}
			if !placed {
				clusters = append(clusters, []*core.Scan{sc})
			}
		}
		for _, cl := range clusters {
			g := Group{Scans: cl, Tool: k.tool, SameSlash24: true}
			for _, sc := range cl {
				g.TotalPackets += sc.Packets
				g.TotalCoverage += sc.Coverage
				if sc.Src>>8 != cl[0].Src>>8 {
					g.SameSlash24 = false
				}
			}
			if g.TotalCoverage > 1 {
				g.TotalCoverage = 1
			}
			if len(cl) == 1 {
				g.SameSlash24 = false
			}
			out = append(out, g)
		}
	}
	return out
}

// compatible reports whether b can join a's cluster.
func compatible(a, b *core.Scan, cfg *Config) bool {
	skew := b.Start - a.Start
	if skew < 0 {
		skew = -skew
	}
	if skew > cfg.MaxStartSkew {
		return false
	}
	// Window overlap relative to the shorter scan.
	lo, hi := maxI64(a.Start, b.Start), minI64(a.End, b.End)
	if hi <= lo {
		return false
	}
	shorter := minI64(a.End-a.Start, b.End-b.Start)
	if shorter > 0 && float64(hi-lo) < cfg.MinOverlap*float64(shorter) {
		return false
	}
	// One /24 is a strong coordination signal on its own.
	if a.Src>>8 == b.Src>>8 {
		return true
	}
	// Otherwise require equal-slice behavior: similar rates and sizes.
	if a.RatePPS <= 0 || b.RatePPS <= 0 {
		return false
	}
	r := a.RatePPS / b.RatePPS
	if r < 1 {
		r = 1 / r
	}
	if r > cfg.MaxRateRatio {
		return false
	}
	s := float64(a.Packets) / float64(b.Packets)
	if s < 1 {
		s = 1 / s
	}
	return s <= cfg.MaxRateRatio
}

// Stats summarizes a Detect result.
type Stats struct {
	// Year is the measurement year, for a caller that summarizes year by year
	// to fill in: Summarize leaves it zero, and it stays out of the JSON.
	Year int `json:"-"`
	// RawScans is the number of per-source campaigns grouped.
	RawScans int
	// LogicalScans is the number of groups.
	LogicalScans int
	// Collaborative is the number of groups with more than one member.
	Collaborative int
	// LargestGroup is the member count of the biggest group.
	LargestGroup int
	// InflationFactor is RawScans / LogicalScans — how much single-source
	// counting overstates actor activity.
	InflationFactor float64
}

// Summarize computes aggregate statistics over groups.
func Summarize(groups []Group) Stats {
	st := Stats{LogicalScans: len(groups)}
	for _, g := range groups {
		st.RawScans += len(g.Scans)
		if len(g.Scans) > 1 {
			st.Collaborative++
		}
		if len(g.Scans) > st.LargestGroup {
			st.LargestGroup = len(g.Scans)
		}
	}
	if st.LogicalScans > 0 {
		st.InflationFactor = float64(st.RawScans) / float64(st.LogicalScans)
	}
	return st
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
