package synscan

import (
	"github.com/synscan/synscan/internal/analysis"
	"github.com/synscan/synscan/internal/collab"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/workload"
)

// Result types of the per-experiment analyses, re-exported.
type (
	// DisclosureResult traces a vulnerability-disclosure surge (Fig. 1).
	DisclosureResult = analysis.Figure1Result
	// VolatilityResult holds the weekly /16 change factors (Fig. 2).
	VolatilityResult = analysis.Figure2Result
	// PortsPerSourceResult is the distinct-ports-per-source CDF (Fig. 3).
	PortsPerSourceResult = analysis.Figure3Result
	// PortToolMix is one port's traffic with tool shares (Fig. 4).
	PortToolMix = analysis.Figure4Port
	// PortTypeMix is one port's scans by scanner type (Fig. 5).
	PortTypeMix = analysis.Figure5Port
	// RecurrenceResult holds per-type recurrence and downtime (Fig. 6).
	RecurrenceResult = analysis.Figure6Result
	// SpeedCoverageRow summarizes one scanner type (Fig. 7).
	SpeedCoverageRow = analysis.Figure7Row
	// OrgCoverageRow is one institutional scanner's port coverage (Fig. 8).
	OrgCoverageRow = analysis.Figure8Row
	// OrgCoverageDelta compares 2023 vs 2024 coverage (Figs. 9/10).
	OrgCoverageDelta = analysis.Figure910Row
	// PortCoverageResult carries the §5.1 scalars.
	PortCoverageResult = analysis.Sec51Result
	// VerticalScanResult carries the §5.2 scalars.
	VerticalScanResult = analysis.Sec52Result
	// ToolSpeedResult carries the §6.3 per-tool speed summaries.
	ToolSpeedResult = analysis.Sec63Result
	// CoverageModesResult carries the §6.4 coverage-mode detection.
	CoverageModesResult = analysis.Sec64Result
	// OriginResult carries the §5.4 origin-country structure.
	OriginResult = analysis.Sec54Result
	// BiasResult quantifies the benign-scanner measurement bias (§7).
	BiasResult = analysis.BiasResult
	// BlockableResult is the fingerprint-blockable traffic share (§7).
	BlockableResult = analysis.BlockableResult
	// VantageResult compares two telescope vantage points (§7).
	VantageResult = analysis.VantageResult
	// BlocklistResult measures weekly blocklist staleness (§4.4/§6.6).
	BlocklistResult = analysis.BlocklistResult
	// CollabGroup is one reconstructed logical (possibly sharded) scan.
	CollabGroup = collab.Group
	// CollabStats summarizes a collaboration-detection pass.
	CollabStats = collab.Stats
	// CollabConfig tunes the grouping heuristics.
	CollabConfig = collab.Config
	// Evaluation is the complete machine-readable result set (every table,
	// figure and section scalar), with JSON and CSV export methods.
	Evaluation = analysis.Evaluation
)

// Evaluate simulates the decade and computes every experiment of the
// paper's evaluation in one call — the programmatic form of
// `syneval -json`.
func Evaluate(seed uint64, scale float64, telescopeSize int) (*Evaluation, error) {
	return analysis.FullEvaluation(seed, scale, telescopeSize, analysis.CollectConfig{})
}

// DisclosureResponse reproduces Figure 1: inject a disclosure event into the
// given year and trace the surge and its decay (KS-verified).
func DisclosureResponse(cfg Config, ev Disclosure) (*DisclosureResult, error) {
	return analysis.Figure1(cfg.Seed, cfg.Scale, cfg.TelescopeSize, cfg.Year, ev)
}

// Volatility reproduces Figure 2 from a collected year.
func Volatility(yd *YearData) *VolatilityResult { return analysis.Figure2(yd) }

// PortsPerSource reproduces Figure 3 from a collected year.
func PortsPerSource(yd *YearData) *PortsPerSourceResult { return analysis.Figure3(yd) }

// ToolMixByPort reproduces Figure 4: top-N ports by traffic with tool
// shares.
func ToolMixByPort(yd *YearData, topN int) []PortToolMix { return analysis.Figure4(yd, topN) }

// TypeMixByPort reproduces Figure 5: top-N ports by scans with scanner-type
// shares.
func TypeMixByPort(c *Campaigns, topN int) []PortTypeMix { return analysis.Figure5(c, topN) }

// Recurrence reproduces Figure 6 over one or more years' campaigns.
func Recurrence(years []*Campaigns) *RecurrenceResult { return analysis.Figure6(years) }

// SpeedAndCoverage reproduces Figure 7 from a year's campaigns.
func SpeedAndCoverage(c *Campaigns) []SpeedCoverageRow { return analysis.Figure7(c) }

// InstitutionalCoverage reproduces Figure 8 for the given year: the port
// coverage of every known scanning organization.
func InstitutionalCoverage(cfg Config) ([]OrgCoverageRow, error) {
	s, err := workload.NewScenario(workload.Config{
		Year: cfg.Year, Seed: cfg.Seed, Scale: cfg.Scale,
		TelescopeSize: cfg.TelescopeSize, Disclosures: cfg.Disclosures,
	})
	if err != nil {
		return nil, err
	}
	return analysis.Figure8(s), nil
}

// InstitutionalCoverageDelta reproduces Figures 9/10: 2023 vs 2024 coverage
// per organization.
func InstitutionalCoverageDelta(seed uint64, scale float64, telescopeSize int) ([]OrgCoverageDelta, error) {
	var cover [2][]OrgCoverageRow
	for i, year := range []int{2023, 2024} {
		var err error
		cover[i], err = InstitutionalCoverage(Config{Year: year, Seed: seed, Scale: scale, TelescopeSize: telescopeSize})
		if err != nil {
			return nil, err
		}
	}
	return analysis.Figure910(cover[0], cover[1]), nil
}

// PortCoverage computes the §5.1 scalars for a collected year.
func PortCoverage(yd *YearData, seed uint64) *PortCoverageResult {
	return analysis.Sec51(yd, inetmodel.NewServiceModel(seed), seed)
}

// VerticalScans computes the §5.2 scalars for a year's campaigns.
func VerticalScans(c *Campaigns) *VerticalScanResult { return analysis.Sec52(c) }

// ToolSpeeds computes the §6.3 per-tool speed summaries.
func ToolSpeeds(c *Campaigns) *ToolSpeedResult { return analysis.Sec63(c) }

// CoverageModes computes the §6.4 coverage distribution of one tool.
func CoverageModes(c *Campaigns, tool Tool) *CoverageModesResult {
	return analysis.Sec64(c, tool)
}

// SpeedPortsCorrelation computes the §5.3 speed-vs-ports correlation.
func SpeedPortsCorrelation(c *Campaigns) (PearsonResult, error) {
	return analysis.SpeedPortsCorrelation(c)
}

// OriginStructure computes the §5.4 origin-country analysis: top origin
// countries, single-country-dominated ports, and the per-port origin splits
// for the headline biased services.
func OriginStructure(yd *YearData) *OriginResult { return analysis.Sec54(yd) }

// InstitutionalBias quantifies how much the known "benign" scanners distort
// a naive view of the threat landscape (§7 future work).
func InstitutionalBias(yd *YearData, topN int) *BiasResult {
	return analysis.InstitutionalBias(yd, topN)
}

// BlockableShare computes the share of traffic identifiable (and hence
// blockable) by the §3.3 tool fingerprints — the alert-fatigue finding of
// §7: 92.1% in 2020, under 40% by 2024.
func BlockableShare(yd *YearData) *BlockableResult { return analysis.Blockable(yd) }

// CompareVantagePoints runs one measurement year against two different
// telescope address sets and compares what they see (§7 future work).
func CompareVantagePoints(year int, seed uint64, scale float64, telescopeSize int, telSeedA, telSeedB uint64) (*VantageResult, error) {
	return analysis.CompareVantage(year, seed, scale, telescopeSize, telSeedA, telSeedB)
}

// DisclosureResponseMulti overlays several disclosure events in one
// simulated year, like the paper's ten-event Figure 1.
func DisclosureResponseMulti(cfg Config, events []Disclosure) (*analysis.Figure1MultiResult, error) {
	return analysis.Figure1Multi(cfg.Seed, cfg.Scale, cfg.TelescopeSize, cfg.Year, events)
}

// ZMapDailyCounts reproduces the §4.1 per-day ZMap campaign counts used to
// establish that the 2024 surge is a landscape shift, not one campaign.
func ZMapDailyCounts(c *Campaigns) *analysis.ZMapDailyResult {
	return analysis.ZMapDaily(c)
}

// BlocklistDecay measures how quickly a weekly source blocklist loses
// coverage of the following weeks' traffic (§4.4/§6.6).
func BlocklistDecay(cfg Config) (*BlocklistResult, error) {
	s, err := workload.NewScenario(workload.Config{
		Year: cfg.Year, Seed: cfg.Seed, Scale: cfg.Scale,
		TelescopeSize: cfg.TelescopeSize, Disclosures: cfg.Disclosures,
	})
	if err != nil {
		return nil, err
	}
	return analysis.BlocklistDecay(s), nil
}

// DetectCollaboration groups detected campaigns into logical scans,
// merging shards of distributed scans (§4.1/§6.4: counting scans as
// single-source overstates actor activity).
func DetectCollaboration(scans []*Scan, cfg CollabConfig) []CollabGroup {
	return collab.Detect(scans, cfg)
}

// SummarizeCollaboration aggregates a DetectCollaboration result.
func SummarizeCollaboration(groups []CollabGroup) CollabStats {
	return collab.Summarize(groups)
}
