// Package analysis turns simulated telescope captures into the tables and
// figures of the paper. Collect runs one scenario through the telescope and
// campaign detector in a single streaming pass, retaining exactly the
// aggregates the per-experiment functions (Table1, Figure2, ...) consume.
package analysis

import (
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/fingerprint"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/stats"
	"github.com/synscan/synscan/internal/telescope"
	"github.com/synscan/synscan/internal/tools"
	"github.com/synscan/synscan/internal/workload"
)

// Campaigns is the scan-level half of a measurement year: the detector's
// closed flows with their origins, and the window they were cut from. It is
// exactly what an archive can rebuild (CollectArchive returns one), and every
// analysis that reads nothing else takes a *Campaigns — one that needs the raw
// probe stream takes the *YearData it is embedded in, so handing it an
// archive-loaded year does not compile.
type Campaigns struct {
	// Year is the profile year.
	Year int
	// Days is the capture window length.
	Days int
	// TelescopeSize is the simulated monitored-address count.
	TelescopeSize int
	// Start is the window start (ns).
	Start int64

	// Scans are all closed flows, qualified or not, in close order.
	Scans []*core.Scan
	// ScanOrigins are the enriched origins, parallel to Scans, with reserved
	// space classified Unknown: Table 2 has no Reserved row.
	ScanOrigins []enrich.Origin
}

// YearData is everything one simulated measurement year yields: its
// campaigns plus the per-probe tallies of the accepted capture.
type YearData struct {
	Campaigns

	// AcceptedPackets counts probes that entered the dataset.
	AcceptedPackets uint64
	// TelescopeStats are the capture drop counters.
	TelescopeStats telescope.Stats
	// PacketsPerDay is the accepted volume per window day.
	PacketsPerDay []uint64

	// PacketsPerPort tallies accepted probes per destination port.
	PacketsPerPort *stats.Counter[uint16]
	// SourcesPerPort tallies distinct sources per destination port.
	SourcesPerPort *stats.Counter[uint16]
	// PortsPerSource maps each source to its distinct-port count (Fig. 3);
	// its length is the number of distinct sources.
	PortsPerSource map[uint32]int

	// PacketsPerToolPort tallies accepted probes per (tool, port) using the
	// per-packet fingerprints plus campaign attribution (Fig. 4).
	PacketsPerToolPort *stats.Counter[ToolPort]

	// Weekly volatility (Fig. 2): per (source /16, week) aggregates.
	WeeklySources *stats.Counter[BlockWeek]
	WeeklyPackets *stats.Counter[BlockWeek]

	// CountryPackets tallies accepted probes per (port, country) for the
	// §5.4 origin biases.
	CountryPackets *stats.Counter[PortCountry]
	// InstPacketsPerPort tallies accepted probes from institutional space
	// per port, for the benign-scanner bias analysis (§7).
	InstPacketsPerPort *stats.Counter[uint16]

	// PipelineStats is the observability snapshot taken when collection
	// finished — telescope drop mix, detector flow lifecycle, enrichment
	// cache hits, per-stage wall time. Zero when the year was collected
	// without a metrics registry.
	PipelineStats obs.Snapshot

	reg *inetmodel.Registry
}

// ToolPort keys the per-tool-per-port packet tally.
type ToolPort struct {
	Tool tools.Tool
	Port uint16
}

// BlockWeek keys weekly per-/16 aggregates.
type BlockWeek struct {
	Block uint16
	Week  uint8
}

// PortCountry keys the geographic targeting tally.
type PortCountry struct {
	Port    uint16
	Country string
}

// Registry returns the synthetic Internet behind the year.
func (y *YearData) Registry() *inetmodel.Registry { return y.reg }

// CollectConfig parameterizes Collect, Decade and FullEvaluation. The zero
// value is the default collection: no metrics. Detection is always the
// sequential detector (Decade already runs the years concurrently, so
// sharding each year buys nothing; see DESIGN "Sharded detection pipeline").
type CollectConfig struct {
	// Metrics, when non-nil, instruments the whole collection pass —
	// telescope ingress, detector, enrichment cache, and per-stage wall
	// time — and stores a final snapshot in YearData.PipelineStats.
	Metrics *obs.Registry
}

// Collect simulates the scenario and gathers all aggregates in one
// streaming pass, with observability per cc.
func Collect(s *workload.Scenario, cc CollectConfig) *YearData {
	return collect(s, cc, func(accept func(*packet.Probe)) {
		s.Run(func(p *packet.Probe) {
			if s.Telescope.Observe(p) == telescope.Accepted {
				accept(p)
			}
		})
	})
}

// collect is the one collection pass behind Collect and CollectReactive.
// run replays the scenario through whichever telescope the caller uses,
// handing accept every probe that telescope's ingress decision accepted.
func collect(s *workload.Scenario, cc CollectConfig, run func(accept func(*packet.Probe))) *YearData {
	yd := &YearData{
		Campaigns: Campaigns{
			Year:          s.Profile.Year,
			Days:          s.Profile.Days,
			TelescopeSize: s.Telescope.Size(),
			Start:         s.Start,
		},
		PacketsPerDay:      make([]uint64, s.Profile.Days+1),
		PacketsPerPort:     stats.NewCounter[uint16](),
		SourcesPerPort:     stats.NewCounter[uint16](),
		PortsPerSource:     make(map[uint32]int),
		PacketsPerToolPort: stats.NewCounter[ToolPort](),
		WeeklySources:      stats.NewCounter[BlockWeek](),
		WeeklyPackets:      stats.NewCounter[BlockWeek](),
		CountryPackets:     stats.NewCounter[PortCountry](),
		InstPacketsPerPort: stats.NewCounter[uint16](),
		reg:                s.Registry,
	}
	reg := cc.Metrics // nil disables every obs call below
	en := enrich.New(s.Registry)
	en.SetMetrics(reg)
	s.Telescope.SetMetrics(reg)

	collect := func(sc *core.Scan) {
		yd.Scans = append(yd.Scans, sc)
		yd.ScanOrigins = append(yd.ScanOrigins, tableOrigin(en.Origin(sc.Src)))
	}
	det := core.NewDetector(s.DetectorConfig, collect, core.WithMetrics(reg))

	// Dedup sets, keyed compactly.
	srcPort := make(map[uint64]struct{}) // src<<16|port seen
	weekSrc := make(map[uint64]struct{}) // block<<40|week<<32|srcLow seen

	runSpan := obs.StartSpan(reg.Histogram("collect.run_ns"))
	run(func(p *packet.Probe) {
		yd.accept(s, p, srcPort, weekSrc)
		det.Ingest(p)
	})
	runSpan.End()

	flushSpan := obs.StartSpan(reg.Histogram("collect.flush_ns"))
	det.FlushAll()
	flushSpan.End()

	finalizeSpan := obs.StartSpan(reg.Histogram("collect.finalize_ns"))
	yd.TelescopeStats = s.Telescope.Stats()
	finalizeSpan.End()

	if reg != nil {
		yd.PipelineStats = reg.Snapshot()
	}
	return yd
}

// accept folds one telescope-accepted probe into every per-packet aggregate.
// srcPort and weekSrc are the caller-owned dedup sets.
func (yd *YearData) accept(s *workload.Scenario, p *packet.Probe, srcPort, weekSrc map[uint64]struct{}) {
	day := int64(24 * 3600 * 1e9)
	yd.AcceptedPackets++
	d := int((p.Time - s.Start) / day)
	if d >= 0 && d < len(yd.PacketsPerDay) {
		yd.PacketsPerDay[d]++
	}
	yd.PacketsPerPort.Inc(p.DstPort)

	spKey := uint64(p.Src)<<16 | uint64(p.DstPort)
	if _, dup := srcPort[spKey]; !dup {
		srcPort[spKey] = struct{}{}
		yd.SourcesPerPort.Inc(p.DstPort)
		yd.PortsPerSource[p.Src]++
	}

	// Per-packet tool attribution for the traffic mix: the per-packet
	// fingerprints identify ZMap/Masscan/Mirai directly; everything
	// else lands in Unknown here (campaign-level attribution refines
	// NMap/Unicorn, but per-packet traffic shares are what Fig. 4
	// plots).
	tl := tools.ToolUnknown
	switch {
	case fingerprint.IsZMap(p):
		tl = tools.ToolZMap
	case fingerprint.IsMirai(p):
		tl = tools.ToolMirai
	case fingerprint.IsMasscan(p):
		tl = tools.ToolMasscan
	}
	yd.PacketsPerToolPort.Inc(ToolPort{tl, p.DstPort})

	week := uint8(int((p.Time - s.Start) / (7 * day)))
	block := inetmodel.Block16(p.Src)
	bw := BlockWeek{block, week}
	yd.WeeklyPackets.Inc(bw)
	wsKey := uint64(block)<<40 | uint64(week)<<32 | uint64(p.Src&0xffff)<<8 | uint64(p.Src>>24)
	if _, dup := weekSrc[wsKey]; !dup {
		weekSrc[wsKey] = struct{}{}
		yd.WeeklySources.Inc(bw)
	}

	entry := s.Registry.Lookup(p.Src)
	if entry.Country != "" {
		yd.CountryPackets.Inc(PortCountry{p.DstPort, entry.Country})
	}
	if entry.Type == inetmodel.TypeInstitutional {
		yd.InstPacketsPerPort.Inc(p.DstPort)
	}
}
