package analysis

import (
	"sort"

	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/query"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/stats"
	"github.com/synscan/synscan/internal/tools"
)

// ---------------------------------------------------------------------------
// §5.1: port-space coverage, alias co-scanning, services vs scans

// Sec51Result carries the §5.1 scalars for one year (plus the cross-year
// correlations where noted).
type Sec51Result struct {
	Year int
	// PrivilegedCoverage is the fraction of ports 1–1023 that received
	// probes above the noise floor (31% in 2015 → ~all by 2024).
	PrivilegedCoverage float64
	// CoScan80_8080 is P(campaign targeting 80 also targets 8080)
	// (18% in 2015 → 87% in 2020).
	CoScan80_8080 float64
	// ThreePlusShare is the share of campaigns targeting >= 3 ports.
	ThreePlusShare float64
	// ServicesScansR is the Pearson correlation between per-port service
	// population (from a vertical scan of the service model) and per-port
	// scan counts — the paper finds essentially none (R = 0.047).
	ServicesScansR stats.PearsonResult
}

// Sec51 computes the §5.1 quantities for one collected year.
func Sec51(yd *YearData, svc *inetmodel.ServiceModel, seed uint64) *Sec51Result {
	res := &Sec51Result{Year: yd.Year}

	// Privileged-port coverage above a 1% noise floor: a privileged port
	// counts as probed when its volume exceeds 1% of the mean per-port
	// volume over probed privileged ports.
	var privTotal uint64
	probed := 0
	for p := 1; p < 1024; p++ {
		privTotal += yd.PacketsPerPort.Get(uint16(p))
	}
	floor := float64(privTotal) / 1023 * 0.01
	for p := 1; p < 1024; p++ {
		if float64(yd.PacketsPerPort.Get(uint16(p))) > floor {
			probed++
		}
	}
	res.PrivilegedCoverage = float64(probed) / 1023

	// Alias co-scanning over qualified campaigns. Institutional full-range
	// scans are excluded from the co-scan metric: at paper scale their
	// complete port walk trivially covers both ports, and at simulation
	// scale the truncated walk would just add noise — the §5.1 claim is
	// about targeted scans picking up alias ports.
	targeted := query.Not(query.TypeIn(inetmodel.TypeInstitutional))
	if with80 := yd.count(targeted, query.PortAny(80)); with80 > 0 {
		both := yd.count(targeted, query.PortAny(80), query.PortAny(8080))
		res.CoScan80_8080 = float64(both) / float64(with80)
	}
	if total := yd.count(); total > 0 {
		res.ThreePlusShare = float64(yd.count(atLeast(query.FieldNPorts, 3))) / float64(total)
	}

	// Services vs scans: vertical scan of 100k hosts against per-port scan
	// counts over a sample of ports.
	r := rng.New(seed).Derive("analysis/sec51")
	services := svc.VerticalScan(r, 100000)
	scanCounts := yd.ScansPerPort()
	var xs, ys []float64
	for p := 0; p < 65536; p += 13 { // systematic sample, ~5k ports
		xs = append(xs, float64(services[p]))
		ys = append(ys, float64(scanCounts.Get(uint16(p))))
	}
	if pr, err := stats.Pearson(xs, ys); err == nil {
		res.ServicesScansR = pr
	}
	return res
}

// ThreePlusTrend computes the cross-year Pearson correlation of the
// >=3-port campaign share against the year index (paper: R = 0.88,
// p < 0.05).
func ThreePlusTrend(results []*Sec51Result) (stats.PearsonResult, error) {
	var xs, ys []float64
	for _, r := range results {
		xs = append(xs, float64(r.Year))
		ys = append(ys, r.ThreePlusShare)
	}
	return stats.Pearson(xs, ys)
}

// ---------------------------------------------------------------------------
// §5.2: vertical scans

// Sec52Result summarizes vertical-scan prevalence and speed.
type Sec52Result struct {
	Year int
	// Over100, Over1000, Over10000 count campaigns whose port sets exceed
	// those sizes.
	Over100, Over1000, Over10000 int
	// Share1000 is Over1000 / qualified campaigns.
	Share1000 float64
	// MeanSpeedOver1000Mbps vs MeanSpeedAllMbps: the paper reports
	// 0.3 Gbps vs 14 Mbps in 2022.
	MeanSpeedOver1000Mbps, MeanSpeedAllMbps float64
	// LargestPortCount is the maximum ports in one campaign.
	LargestPortCount int
}

// Sec52 computes vertical-scan statistics for one collected year.
func Sec52(c *Campaigns) *Sec52Result {
	res := &Sec52Result{
		Year:      c.Year,
		Over100:   c.count(atLeast(query.FieldNPorts, 101)),
		Over1000:  c.count(atLeast(query.FieldNPorts, 1001)),
		Over10000: c.count(atLeast(query.FieldNPorts, 10001)),
	}
	if total := c.count(); total > 0 {
		res.Share1000 = float64(res.Over1000) / float64(total)
	}
	var speedsAll, speedsBig []float64
	for _, sc := range c.QualifiedScans() {
		n := len(sc.Ports)
		if n > res.LargestPortCount {
			res.LargestPortCount = n
		}
		if n > 1000 {
			speedsBig = append(speedsBig, sc.SpeedMbps())
		}
		speedsAll = append(speedsAll, sc.SpeedMbps())
	}
	res.MeanSpeedAllMbps = stats.Mean(speedsAll)
	res.MeanSpeedOver1000Mbps = stats.Mean(speedsBig)
	return res
}

// ---------------------------------------------------------------------------
// §6.3: per-tool speeds

// Sec63Result holds per-tool speed summaries for one year.
type Sec63Result struct {
	Year int
	// MedianPPS and MeanPPS per tool over qualified campaigns.
	MedianPPS, MeanPPS map[tools.Tool]float64
	// Top100MeanPPS is the mean of the 100 fastest scans.
	Top100MeanPPS float64
	// OverallMedianPPS summarizes the whole year.
	OverallMedianPPS float64
}

// Sec63 computes per-tool speed distributions for one collected year.
func Sec63(c *Campaigns) *Sec63Result {
	res := &Sec63Result{
		Year:      c.Year,
		MedianPPS: map[tools.Tool]float64{},
		MeanPPS:   map[tools.Tool]float64{},
	}
	for _, r := range engineTable(qualified().GroupBy(query.FieldTool).Count().
		Sum(query.FieldRate).Quantiles(query.FieldRate, 0.5), c) {
		tl := tools.Tool(r.Key[0].Num)
		res.MeanPPS[tl] = r.Aggs[1].Float / float64(r.Aggs[0].Count)
		res.MedianPPS[tl] = r.Aggs[2].Vals[0]
	}
	var all []float64
	for _, sc := range c.QualifiedScans() {
		all = append(all, sc.RatePPS)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	top := all
	if len(top) > 100 {
		top = top[:100]
	}
	res.Top100MeanPPS = stats.Mean(top)
	res.OverallMedianPPS = stats.Median(all)
	return res
}

// Top100Trend correlates the top-100 mean speed against years (paper:
// R = 0.356, p < 0.001 — rising top end).
func Top100Trend(results []*Sec63Result) (stats.PearsonResult, error) {
	var xs, ys []float64
	for _, r := range results {
		xs = append(xs, float64(r.Year))
		ys = append(ys, r.Top100MeanPPS)
	}
	return stats.Pearson(xs, ys)
}

// SpeedPortsCorrelation computes the §5.3 correlation between scan speed
// and ports targeted over a year's qualified campaigns (paper: R = 0.88 on
// aggregated data; per-scan data yields a clearly positive coefficient).
func SpeedPortsCorrelation(c *Campaigns) (stats.PearsonResult, error) {
	var xs, ys []float64
	for _, sc := range c.QualifiedScans() {
		xs = append(xs, float64(len(sc.Ports)))
		ys = append(ys, sc.RatePPS)
	}
	return stats.Pearson(xs, ys)
}

// ---------------------------------------------------------------------------
// §6.4: coverage modes from sharding

// Sec64Result describes the coverage distribution of one tool's campaigns.
type Sec64Result struct {
	Tool tools.Tool
	// Coverages are the per-campaign IPv4 coverage estimates, ascending.
	Coverages []float64
	// ModeCoverage and ModeCount locate the strongest cluster: sharded
	// scans of n collaborators produce a mode at 1/n of the shared scan's
	// coverage.
	ModeCoverage float64
	ModeCount    int
	// FullIPv4Share is the fraction of campaigns covering >= 95% of the
	// space.
	FullIPv4Share float64
}

// Sec64 extracts the coverage distribution (and its dominant mode) of a
// tool's qualified campaigns.
func Sec64(c *Campaigns, tool tools.Tool) *Sec64Result {
	res := &Sec64Result{Tool: tool}
	for _, sc := range c.QualifiedScans() {
		if sc.Tool == tool {
			res.Coverages = append(res.Coverages, sc.Coverage)
		}
	}
	sort.Float64s(res.Coverages)
	// Mode detection over 2%-wide buckets. Coverages ascend, so a bucket is a
	// run of them, and of two equally full buckets the lower one is the mode.
	run := 0
	for i, cov := range res.Coverages {
		b := int(cov * 50)
		if i > 0 && b != int(res.Coverages[i-1]*50) {
			run = 0
		}
		if run++; run > res.ModeCount {
			res.ModeCount = run
			res.ModeCoverage = (float64(b) + 0.5) / 50
		}
	}
	res.FullIPv4Share = shareAtLeast(res.Coverages, 0.95)
	return res
}
