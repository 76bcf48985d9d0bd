package analysis

import (
	"sort"

	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/telescope"
	"github.com/synscan/synscan/internal/tools"
	"github.com/synscan/synscan/internal/workload"
)

// This file reproduces two narrower claims of the paper that the main
// tables do not cover directly: the multi-event version of Figure 1 (the
// paper overlays ten disclosure events) and the §4.1 per-day ZMap scan
// counts (the 2024 minimum exceeding the 2023 maximum is the paper's
// evidence that the ZMap surge is a landscape shift, not one campaign).

// Figure1MultiResult aggregates several disclosure events.
type Figure1MultiResult struct {
	Events []*Figure1Result
	// AllDecayed reports whether every event's final two weeks returned to
	// the pre-event distribution (KS at alpha).
	AllDecayed bool
	// MeanPeakFactor averages the per-event surge heights.
	MeanPeakFactor float64
}

// Figure1Multi injects several disclosure events into one simulated year —
// each on its own port so the decays are separable — and verifies that
// every one of them dies down (§4.3's "the Internet forgets fast" across
// ten major events).
func Figure1Multi(seed uint64, scale float64, telescopeSize, year int, events []workload.Disclosure) (*Figure1MultiResult, error) {
	s, err := workload.NewScenario(workload.Config{
		Year: year, Seed: seed, Scale: scale, TelescopeSize: telescopeSize,
		Disclosures: events,
	})
	if err != nil {
		return nil, err
	}
	// One pass, tallying each event port's daily volume.
	perPort := map[uint16][]uint64{}
	for _, ev := range events {
		perPort[ev.Port] = make([]uint64, s.Profile.Days+1)
	}
	day := int64(24 * 3600 * 1e9)
	s.Run(func(p *packet.Probe) {
		days, ok := perPort[p.DstPort]
		if !ok {
			return
		}
		if s.Telescope.Observe(p) != telescope.Accepted {
			return
		}
		d := int((p.Time - s.Start) / day)
		if d >= 0 && d < len(days) {
			days[d]++
		}
	})

	res := &Figure1MultiResult{AllDecayed: true}
	var peaks float64
	for _, ev := range events {
		r := traceEvent(ev, perPort[ev.Port])
		res.Events = append(res.Events, r)
		peaks += r.PeakFactor
		if !r.KS.SameDistribution(0.05) {
			res.AllDecayed = false
		}
	}
	if len(events) > 0 {
		res.MeanPeakFactor = peaks / float64(len(events))
	}
	return res, nil
}

// ZMapDailyResult carries the §4.1 per-day ZMap campaign counts.
type ZMapDailyResult struct {
	Year int
	// PerDay is the number of qualified ZMap-fingerprinted campaigns
	// starting on each window day.
	PerDay []int
	// Min and Max are over full days; Mean is the daily average. At paper
	// scale the 2024 minimum exceeds the 2023 maximum; at simulation scale
	// daily counts are Poisson-noisy (sharded campaigns start in bursts),
	// so the robust comparison is on the means.
	Min, Max int
	Mean     float64
}

// ZMapDaily counts ZMap campaigns per day. The paper verifies the 2024
// surge by noting the minimum daily ZMap scan count in 2024 (17,122)
// exceeds the 2023 maximum (9,051).
func ZMapDaily(c *Campaigns) *ZMapDailyResult {
	res := &ZMapDailyResult{Year: c.Year, PerDay: make([]int, c.Days)}
	day := int64(24 * 3600 * 1e9)
	for _, sc := range c.QualifiedScans() {
		if sc.Tool != tools.ToolZMap {
			continue
		}
		d := int((sc.Start - c.Start) / day)
		if d >= 0 && d < len(res.PerDay) {
			res.PerDay[d]++
		}
	}
	counts := append([]int{}, res.PerDay...)
	sort.Ints(counts)
	res.Min = counts[0]
	res.Max = counts[len(counts)-1]
	total := 0
	for _, c := range counts {
		total += c
	}
	res.Mean = float64(total) / float64(len(counts))
	return res
}
