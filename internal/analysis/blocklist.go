package analysis

import (
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/telescope"
	"github.com/synscan/synscan/internal/workload"
)

// BlocklistResult quantifies the paper's operational implication (§4.4,
// §6.6): a blocklist of observed scanner addresses goes stale almost
// immediately, because non-institutional sources are burned after one scan —
// "by the time a list is distributed a scanning IP address would have
// already vanished for good".
type BlocklistResult struct {
	Year int
	// HitRate[k] is the fraction of week-w traffic whose source address
	// was already seen in week w-k, averaged over all weeks w >= k.
	// HitRate[0] is 1 by construction and included for reference.
	HitRate []float64
	// InstHitRate is the same restricted to institutional sources, which
	// recur daily and keep a week-old list effective.
	InstHitRate []float64
	// Weeks is the number of capture weeks.
	Weeks int
}

// BlocklistDecay simulates the year and measures how quickly a weekly
// source blocklist loses coverage.
func BlocklistDecay(s *workload.Scenario) *BlocklistResult {
	weeks := s.Profile.Days / 7
	if weeks < 2 {
		weeks = 2
	}
	res := &BlocklistResult{
		Year:        s.Profile.Year,
		HitRate:     make([]float64, weeks),
		InstHitRate: make([]float64, weeks),
		Weeks:       weeks,
	}

	weekSrcs := make([]map[uint32]struct{}, weeks)
	for i := range weekSrcs {
		weekSrcs[i] = make(map[uint32]struct{})
	}
	hits := make([]uint64, weeks)
	totals := make([]uint64, weeks)
	instHits := make([]uint64, weeks)
	instTotals := make([]uint64, weeks)

	week := int64(7 * 24 * 3600 * 1e9)
	reg := s.Registry
	s.Run(func(p *packet.Probe) {
		if s.Telescope.Observe(p) != telescope.Accepted {
			return
		}
		w := int((p.Time - s.Start) / week)
		if w < 0 || w >= weeks {
			return
		}
		inst := reg.Lookup(p.Src).Type == inetmodel.TypeInstitutional
		for k := 0; k <= w; k++ {
			totals[k]++
			if inst {
				instTotals[k]++
			}
			_, listed := weekSrcs[w-k][p.Src]
			// k == 0 counts the packet as covered by the live feed (its own
			// week's list, which it joins below).
			if k == 0 || listed {
				hits[k]++
				if inst {
					instHits[k]++
				}
			}
		}
		weekSrcs[w][p.Src] = struct{}{}
	})

	for k := 0; k < weeks; k++ {
		if totals[k] > 0 {
			res.HitRate[k] = float64(hits[k]) / float64(totals[k])
		}
		if instTotals[k] > 0 {
			res.InstHitRate[k] = float64(instHits[k]) / float64(instTotals[k])
		}
	}
	return res
}
