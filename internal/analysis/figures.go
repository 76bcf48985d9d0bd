package analysis

import (
	"slices"
	"sort"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/query"
	"github.com/synscan/synscan/internal/stats"
	"github.com/synscan/synscan/internal/tools"
	"github.com/synscan/synscan/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 1: vulnerability disclosures spike and decay (§4.3)

// Figure1Result captures one disclosure event's activity trace.
type Figure1Result struct {
	Port uint16
	// RelativeActivity[d] is the port's packet volume on day d divided by
	// its pre-event daily average.
	RelativeActivity []float64
	// PeakDay and PeakFactor locate the surge.
	PeakDay    int
	PeakFactor float64
	// KS compares the port-volume distribution of the last two window
	// weeks against the pre-event weeks: SameDistribution(0.05) confirms
	// the return to baseline.
	KS stats.KSResult
}

// Figure1 injects a disclosure event into a scenario year and traces how
// fast interest decays: Figure1Multi with the one event.
func Figure1(seed uint64, scale float64, telescopeSize int, year int, ev workload.Disclosure) (*Figure1Result, error) {
	res, err := Figure1Multi(seed, scale, telescopeSize, year, []workload.Disclosure{ev})
	if err != nil {
		return nil, err
	}
	return res.Events[0], nil
}

// traceEvent turns a per-day volume series for an event port into the
// Figure-1 surge/decay trace.
func traceEvent(ev workload.Disclosure, days []uint64) *Figure1Result {
	res := &Figure1Result{Port: ev.Port, RelativeActivity: make([]float64, len(days))}
	// Pre-event baseline: the mean daily volume before the disclosure, at least 1.
	var before, after []float64
	for d := 0; d < ev.Day && d < len(days); d++ {
		before = append(before, float64(days[d]))
	}
	pre := max(stats.Mean(before), 1)
	for d, v := range days {
		rel := float64(v) / pre
		res.RelativeActivity[d] = rel
		if rel > res.PeakFactor {
			res.PeakFactor = rel
			res.PeakDay = d
		}
	}
	// KS: daily volumes before the event vs the final two weeks.
	for d := len(days) - 14; d < len(days); d++ {
		if d >= 0 {
			after = append(after, float64(days[d]))
		}
	}
	if ks, err := stats.KS2Sample(before, after); err == nil {
		res.KS = ks
	}
	return res
}

// ---------------------------------------------------------------------------
// Figure 2: weekly volatility per /16 netblock (§4.4)

// Figure2Result holds the weekly change-factor distributions.
type Figure2Result struct {
	// SourceRatios, ScanRatios, PacketRatios are week-over-week change
	// factors per /16, expressed as max(new,old)/min(new,old) >= 1.
	SourceRatios, ScanRatios, PacketRatios []float64
	// ShareChangedTwofold is the fraction of ratios >= 2 per metric.
	SourcesTwofold, ScansTwofold, PacketsTwofold float64
	// Stable is the share of packet ratios below 1.25 ("do more or less
	// the same week after week").
	Stable float64
}

// Figure2 computes the weekly volatility CDF inputs from a collected year.
func Figure2(yd *YearData) *Figure2Result {
	weeks := yd.Days / 7
	weeklyScans := stats.NewCounter[BlockWeek]()
	for _, sc := range yd.QualifiedScans() {
		week := uint8((sc.Start - yd.Start) / (7 * 24 * 3600 * 1e9))
		weeklyScans.Inc(BlockWeek{inetmodel.Block16(sc.Src), week})
	}
	res := &Figure2Result{}
	res.SourceRatios = weeklyRatios(yd.WeeklySources, weeks)
	res.ScanRatios = weeklyRatios(weeklyScans, weeks)
	res.PacketRatios = weeklyRatios(yd.WeeklyPackets, weeks)
	res.SourcesTwofold = shareAtLeast(res.SourceRatios, 2)
	res.ScansTwofold = shareAtLeast(res.ScanRatios, 2)
	res.PacketsTwofold = shareAtLeast(res.PacketRatios, 2)
	res.Stable = 1 - shareAtLeast(res.PacketRatios, 1.25)
	return res
}

func weeklyRatios(c *stats.Counter[BlockWeek], weeks int) []float64 {
	if weeks < 2 {
		return nil
	}
	// Gather blocks.
	blocks := map[uint16]bool{}
	for _, k := range c.Keys() {
		blocks[k.Block] = true
	}
	var ratios []float64
	for b := range blocks {
		for w := 1; w < weeks; w++ {
			prev := float64(c.Get(BlockWeek{b, uint8(w - 1)}))
			cur := float64(c.Get(BlockWeek{b, uint8(w)}))
			if prev == 0 && cur == 0 {
				continue
			}
			if prev == 0 || cur == 0 {
				// Appeared or vanished: maximal volatility; cap for CDFs.
				ratios = append(ratios, 100)
				continue
			}
			r := cur / prev
			if r < 1 {
				r = 1 / r
			}
			ratios = append(ratios, r)
		}
	}
	sort.Float64s(ratios)
	return ratios
}

func shareAtLeast(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x >= threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// ---------------------------------------------------------------------------
// Figure 3: distinct ports per source (§5.1)

// Figure3Result is the per-year ports-per-source distribution.
type Figure3Result struct {
	Year int
	// CDF over distinct-port counts (not serialized; use the shares).
	ECDF *stats.ECDF `json:"-"`
	// SinglePortShare is P(source targets exactly one port).
	SinglePortShare float64
	// FivePlusShare is P(source targets >= 5 ports).
	FivePlusShare float64
	// ThreePlusShare is P(source targets >= 3 ports).
	ThreePlusShare float64
}

// Figure3 computes the ports-per-source CDF of a collected year.
func Figure3(yd *YearData) *Figure3Result {
	xs := make([]float64, 0, len(yd.PortsPerSource))
	single, five, three := 0, 0, 0
	for _, n := range yd.PortsPerSource {
		xs = append(xs, float64(n))
		if n == 1 {
			single++
		}
		if n >= 5 {
			five++
		}
		if n >= 3 {
			three++
		}
	}
	total := float64(len(xs))
	res := &Figure3Result{Year: yd.Year, ECDF: stats.NewECDF(xs)}
	if total > 0 {
		res.SinglePortShare = float64(single) / total
		res.FivePlusShare = float64(five) / total
		res.ThreePlusShare = float64(three) / total
	}
	return res
}

// ---------------------------------------------------------------------------
// Figure 4: top ports × tool mix (§6.1)

// Figure4Port is one port's traffic with its tool decomposition.
type Figure4Port struct {
	Port    uint16
	Packets uint64
	// ToolShare maps per-packet-identifiable tools (ZMap, Masscan, Mirai)
	// plus Unknown to their share of the port's traffic.
	ToolShare map[tools.Tool]float64
}

// Figure4 returns the top-N ports by traffic with per-tool shares.
func Figure4(yd *YearData, topN int) []Figure4Port {
	top := yd.PacketsPerPort.TopK(topN)
	out := make([]Figure4Port, 0, len(top))
	for _, kv := range top {
		fp := Figure4Port{Port: kv.Key, Packets: kv.Count, ToolShare: map[tools.Tool]float64{}}
		for _, tl := range []tools.Tool{tools.ToolZMap, tools.ToolMasscan, tools.ToolMirai, tools.ToolUnknown} {
			n := yd.PacketsPerToolPort.Get(ToolPort{tl, kv.Key})
			if kv.Count > 0 {
				fp.ToolShare[tl] = float64(n) / float64(kv.Count)
			}
		}
		out = append(out, fp)
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 5: scanner types per port (§6.7)

// Figure5Port is one port's qualified-scan decomposition by scanner type.
type Figure5Port struct {
	Port      uint16
	Scans     int
	TypeShare map[inetmodel.ScannerType]float64
}

// Figure5 returns the top-N ports by scans with scanner-type shares.
func Figure5(c *Campaigns, topN int) []Figure5Port {
	perPortType := stats.NewCounter[portType]()
	perPort := stats.NewCounter[uint16]()
	for _, r := range engineTable(qualified().GroupBy(query.FieldPort, query.FieldType).Count(), c) {
		p, t := uint16(r.Key[0].Num), inetmodel.ScannerType(r.Key[1].Num)
		perPort.Add(p, r.Aggs[0].Count)
		perPortType.Add(portType{p, t}, r.Aggs[0].Count)
	}
	top := perPort.TopK(topN)
	out := make([]Figure5Port, 0, len(top))
	for _, kv := range top {
		fp := Figure5Port{Port: kv.Key, Scans: int(kv.Count), TypeShare: map[inetmodel.ScannerType]float64{}}
		for _, t := range inetmodel.ScannerTypes {
			fp.TypeShare[t] = float64(perPortType.Get(portType{kv.Key, t})) / float64(kv.Count)
		}
		out = append(out, fp)
	}
	return out
}

type portType struct {
	Port uint16
	Type inetmodel.ScannerType
}

// ---------------------------------------------------------------------------
// Figure 6: scanner recurrence and downtime (§6.6)

// Figure6Result holds recurrence distributions per scanner type.
type Figure6Result struct {
	// ScansPerSource maps type -> sample of per-source campaign counts.
	ScansPerSource map[inetmodel.ScannerType][]float64
	// DowntimeHours maps type -> sample of gaps between consecutive scans
	// of one source, in hours.
	DowntimeHours map[inetmodel.ScannerType][]float64
	// DailyModeShare is, per type, the share of downtimes consistent with
	// a daily rescan cadence (12–30 h idle between multi-hour daily
	// scans) — the institutional "every day" mode.
	DailyModeShare map[inetmodel.ScannerType]float64
}

// Figure6 computes recurrence statistics over one or more collected years.
func Figure6(years []*Campaigns) *Figure6Result {
	res := &Figure6Result{
		ScansPerSource: map[inetmodel.ScannerType][]float64{},
		DowntimeHours:  map[inetmodel.ScannerType][]float64{},
		DailyModeShare: map[inetmodel.ScannerType]float64{},
	}
	for _, c := range years {
		// Per-source qualified scans in time order (Scans close in order).
		perSrc := map[uint32][]*core.Scan{}
		typeOf := map[uint32]inetmodel.ScannerType{}
		for i, sc := range c.Scans {
			if sc.Qualified {
				perSrc[sc.Src] = append(perSrc[sc.Src], sc)
				typeOf[sc.Src] = c.ScanOrigins[i].Type
			}
		}
		// Sources in address order, so the samples come out the same each run.
		srcs := make([]uint32, 0, len(perSrc))
		for src := range perSrc {
			srcs = append(srcs, src)
		}
		slices.Sort(srcs)
		for _, src := range srcs {
			scans, t := perSrc[src], typeOf[src]
			res.ScansPerSource[t] = append(res.ScansPerSource[t], float64(len(scans)))
			sort.Slice(scans, func(i, j int) bool { return scans[i].Start < scans[j].Start })
			for i := 1; i < len(scans); i++ {
				gap := float64(scans[i].Start-scans[i-1].End) / 3600e9
				if gap > 0 {
					res.DowntimeHours[t] = append(res.DowntimeHours[t], gap)
				}
			}
		}
	}
	for t, gaps := range res.DowntimeHours {
		daily := 0
		for _, g := range gaps {
			if g >= 12 && g <= 30 {
				daily++
			}
		}
		if len(gaps) > 0 {
			res.DailyModeShare[t] = float64(daily) / float64(len(gaps))
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// Figure 7: speed and coverage per scanner type (§6.8)

// Figure7Row is one scanner type's speed/coverage summary.
type Figure7Row struct {
	Type inetmodel.ScannerType
	// MeanSpeedPPS and MedianSpeedPPS summarize per-scan extrapolated
	// Internet-wide rates.
	MeanSpeedPPS, MedianSpeedPPS float64
	// Above1000PPS is the share of scans exceeding 1,000 pps (the paper:
	// 84% of institutional vs 12% of residential scanning).
	Above1000PPS float64
	// MeanCoverage is the average estimated IPv4 coverage fraction.
	MeanCoverage float64
	Scans        int
}

// Figure7 summarizes scan speed and coverage per scanner type.
func Figure7(c *Campaigns) []Figure7Row {
	fast := map[inetmodel.ScannerType]uint64{}
	for _, r := range engineTable(qualified().RateRange(1000, 0).GroupBy(query.FieldType).Count(), c) {
		fast[inetmodel.ScannerType(r.Key[0].Num)] = r.Aggs[0].Count
	}
	byType := map[inetmodel.ScannerType]Figure7Row{}
	for _, r := range engineTable(qualified().GroupBy(query.FieldType).Count().
		Sum(query.FieldRate).Quantiles(query.FieldRate, 0.5).Sum(query.FieldCoverage), c) {
		t, n := inetmodel.ScannerType(r.Key[0].Num), float64(r.Aggs[0].Count)
		byType[t] = Figure7Row{
			Type:           t,
			MeanSpeedPPS:   r.Aggs[1].Float / n,
			MedianSpeedPPS: r.Aggs[2].Vals[0],
			Above1000PPS:   float64(fast[t]) / n,
			MeanCoverage:   r.Aggs[3].Float / n,
			Scans:          int(r.Aggs[0].Count),
		}
	}
	var rows []Figure7Row
	for _, t := range inetmodel.ScannerTypes {
		if row, ok := byType[t]; ok {
			rows = append(rows, row)
		}
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figures 8, 9, 10: institutional port coverage (§6.8, Appendix A)

// Figure8Row is one organization's observed port coverage in a year.
type Figure8Row struct {
	Org          string
	Kind         inetmodel.OrgKind
	PortsCovered int
	FullRange    bool
	Packets      uint64
	// Density holds the covered fraction of each 1024-port bucket — the
	// data behind the appendix port-map figures.
	Density [64]float64
}

// Figure8 measures per-organization port coverage from the raw capture.
// It runs the scenario itself because the per-org port bitmaps are too
// large to retain in YearData for every analysis. Port-coverage accounting
// intentionally bypasses the ingress port policy: the question is what the
// org scans, not what the telescope keeps.
func Figure8(s *workload.Scenario) []Figure8Row {
	reg := s.Registry
	orgs := reg.Orgs()
	sets := make([]inetmodel.PortSet, len(orgs))
	packets := make([]uint64, len(orgs))
	s.Run(func(p *packet.Probe) {
		e := reg.Lookup(p.Src)
		if e.OrgID < 0 {
			return
		}
		sets[e.OrgID].Add(p.DstPort)
		packets[e.OrgID]++
	})
	var rows []Figure8Row
	for i, org := range orgs {
		if packets[i] == 0 {
			continue
		}
		row := Figure8Row{
			Org:          org.Name,
			Kind:         org.Kind,
			PortsCovered: sets[i].Len(),
			FullRange:    sets[i].Len() >= 65000,
			Packets:      packets[i],
		}
		for _, port := range sets[i].Ports() {
			row.Density[port>>10] += 1.0 / 1024
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].PortsCovered != rows[j].PortsCovered {
			return rows[i].PortsCovered > rows[j].PortsCovered
		}
		return rows[i].Org < rows[j].Org
	})
	return rows
}

// Figure910Row is one organization of the appendix comparison: its port
// coverage in 2023 and in 2024.
type Figure910Row struct {
	Org                  string
	Ports2023, Ports2024 int
}

// Figure910 joins two years' Figure 8 coverage by organization name, widest
// 2024 coverage first.
func Figure910(rows2023, rows2024 []Figure8Row) []Figure910Row {
	only2023 := map[string]int{}
	for _, r := range rows2023 {
		only2023[r.Org] = r.PortsCovered
	}
	var rows []Figure910Row
	for _, r := range rows2024 {
		rows = append(rows, Figure910Row{Org: r.Org, Ports2023: only2023[r.Org], Ports2024: r.PortsCovered})
		delete(only2023, r.Org)
	}
	for org, ports := range only2023 {
		rows = append(rows, Figure910Row{Org: org, Ports2023: ports})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Ports2024 != rows[j].Ports2024 {
			return rows[i].Ports2024 > rows[j].Ports2024
		}
		return rows[i].Org < rows[j].Org
	})
	return rows
}
