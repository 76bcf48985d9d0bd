// Package synscan reproduces the measurement system of "Have you SYN me?
// Characterizing Ten Years of Internet Scanning" (IMC 2024): a network-
// telescope pipeline that groups SYN probes into scan campaigns (§3.4),
// fingerprints the scanning tools behind them (§3.3), enriches origins, and
// regenerates every table and figure of the paper's evaluation on top of a
// calibrated synthetic workload (2015–2024).
//
// Four entry points cover most uses:
//
//   - Simulate runs one measurement year end to end and returns the
//     collected YearData.
//   - SimulateDecade runs all ten years with a shared synthetic Internet.
//   - Evaluate computes the paper's tables and figures, named by the keys
//     `syneval -only` takes, from simulated years (Input.Years), from an
//     archive's campaigns (Input.Campaigns) or from the simulation
//     parameters alone. It is the one way to an experiment's result.
//   - NewAnalyzer ingests an arbitrary probe stream (e.g. parsed from a
//     pcap file via the Probe codec) through the campaign detector.
//
// The heavy lifting lives in the internal packages; this package re-exports
// the stable surface via type aliases, so the whole pipeline is usable
// without reaching into internals.
package synscan

import (
	"github.com/synscan/synscan/internal/analysis"
	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/collab"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/stats"
	"github.com/synscan/synscan/internal/telescope"
	"github.com/synscan/synscan/internal/tools"
	"github.com/synscan/synscan/internal/workload"
)

// Core data types, re-exported.
type (
	// Probe is one observed TCP probe (see Probe.IsSYN, MarshalFrame,
	// UnmarshalFrame for the wire codec).
	Probe = packet.Probe
	// Scan is one detected campaign (or sub-threshold flow).
	Scan = core.Scan
	// Tool identifies a scanning tool family.
	Tool = tools.Tool
	// ScannerType classifies a source (institutional, residential, ...).
	ScannerType = inetmodel.ScannerType
	// Origin is the enrichment result for one source address.
	Origin = enrich.Origin
	// Disclosure models a vulnerability-disclosure event (Figure 1).
	Disclosure = workload.Disclosure
	// YearData is everything one simulated measurement year yields: its
	// Campaigns plus the per-probe tallies of the accepted capture.
	YearData = analysis.YearData
	// Campaigns is the scan-level half of a year — detected flows, their
	// origins and the capture window — embedded in YearData and returned by
	// CollectArchive. Pass &yd.Campaigns to the analyses that take it.
	Campaigns = analysis.Campaigns
	// KSResult and PearsonResult carry statistical test outcomes.
	KSResult      = stats.KSResult
	PearsonResult = stats.PearsonResult
	// Telescope is a configured capture deployment.
	Telescope = telescope.Telescope
	// Metrics is a pipeline-metrics registry: counters, gauges and
	// histograms keyed by dot-separated names, race-safe to snapshot while
	// the pipeline runs. Create one with NewMetrics and pass it via
	// Config.Metrics or the Analyzer's WithMetrics option.
	Metrics = obs.Registry
	// PipelineSnapshot is a point-in-time capture of a Metrics registry
	// (see YearData.PipelineStats and Analyzer.Stats).
	PipelineSnapshot = obs.Snapshot
)

// NewMetrics creates an empty pipeline-metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Tool constants.
const (
	ToolUnknown = tools.ToolUnknown
	ToolZMap    = tools.ToolZMap
	ToolMasscan = tools.ToolMasscan
	ToolNMap    = tools.ToolNMap
	ToolMirai   = tools.ToolMirai
	ToolUnicorn = tools.ToolUnicorn
	ToolCustom  = tools.ToolCustom
)

// Scanner-type constants (Table 2 order).
const (
	TypeUnknown       = inetmodel.TypeUnknown
	TypeResidential   = inetmodel.TypeResidential
	TypeHosting       = inetmodel.TypeHosting
	TypeEnterprise    = inetmodel.TypeEnterprise
	TypeInstitutional = inetmodel.TypeInstitutional
)

// Config parameterizes one simulated measurement year.
type Config struct {
	// Year selects the calibration profile, 2015–2024.
	Year int
	// Seed drives all randomness; equal configs reproduce byte-identical
	// probe streams.
	Seed uint64
	// Scale shrinks the paper's traffic volumes (default 0.002).
	Scale float64
	// TelescopeSize is the monitored address count (default 4096); the
	// campaign thresholds are rescaled consistently.
	TelescopeSize int
	// Disclosures injects vulnerability-disclosure events.
	Disclosures []Disclosure
	// Metrics, when non-nil, instruments the whole simulated pipeline —
	// telescope ingress, detector, enrichment cache, per-stage wall
	// time — and stores a final snapshot in the returned
	// YearData.PipelineStats. Nil (the default) disables all
	// instrumentation at negligible cost.
	Metrics *Metrics
}

// Years lists the measured years, 2015–2024.
func Years() []int { return workload.Years() }

// Simulate runs one measurement year end to end: workload generation,
// telescope capture, campaign detection, fingerprinting, enrichment.
func Simulate(cfg Config) (*YearData, error) {
	s, err := workload.NewScenario(workload.Config{
		Year: cfg.Year, Seed: cfg.Seed, Scale: cfg.Scale,
		TelescopeSize: cfg.TelescopeSize, Disclosures: cfg.Disclosures,
	})
	if err != nil {
		return nil, err
	}
	return analysis.Collect(s, analysis.CollectConfig{Metrics: cfg.Metrics}), nil
}

// SimulateDecade runs all ten years over one shared synthetic Internet.
func SimulateDecade(seed uint64, scale float64, telescopeSize int) ([]*YearData, error) {
	return analysis.Decade(seed, scale, telescopeSize, analysis.CollectConfig{})
}

// Evaluation types, re-exported: the result set and the type of every
// table, figure and section scalar it holds.
type (
	// Input is what Evaluate runs on: the simulation parameters and,
	// optionally, years already simulated from them or an archive's
	// campaigns.
	Input = analysis.Input
	// Evaluation is the machine-readable result set, with JSON and CSV
	// export methods. Evaluate fills the fields of the experiments it ran.
	Evaluation = analysis.Evaluation

	Table1Row            = analysis.Table1Row        // Table 1
	Table2Row            = analysis.Table2Row        // Table 2
	DisclosureResult     = analysis.Figure1Result    // Fig. 1
	VolatilityResult     = analysis.Figure2Result    // Fig. 2
	PortsPerSourceResult = analysis.Figure3Result    // Fig. 3
	PortToolMix          = analysis.Figure4Port      // Fig. 4
	PortTypeMix          = analysis.Figure5Port      // Fig. 5
	RecurrenceResult     = analysis.Figure6Result    // Fig. 6
	SpeedCoverageRow     = analysis.Figure7Row       // Fig. 7
	OrgCoverageRow       = analysis.Figure8Row       // Fig. 8
	OrgCoverageDelta     = analysis.Figure910Row     // Figs. 9/10
	ZMapDailyResult      = analysis.ZMapDailyResult  // §4.1
	NormalizedOrigin     = analysis.NormalizedOrigin // §4.2
	PortCoverageResult   = analysis.Sec51Result      // §5.1
	VerticalScanResult   = analysis.Sec52Result      // §5.2
	OriginResult         = analysis.Sec54Result      // §5.4
	ToolSpeedResult      = analysis.Sec63Result      // §6.3
	CoverageModesResult  = analysis.Sec64Result      // §6.4
	BlocklistResult      = analysis.BlocklistResult  // §4.4/§6.6
	CollabStats          = collab.Stats              // §4.1/§6.4
	BiasResult           = analysis.BiasResult       // §7
	BlockableResult      = analysis.BlockableResult  // §7
	VantageResult        = analysis.VantageResult    // §7
)

// Evaluate runs the experiments the keys name (`syneval -only`'s: "table2",
// "fig2", ...), or every one the input can serve when there are none, and
// returns their results. Each experiment's years and ranking depth are fixed
// by its row of the experiment table (DESIGN.md's experiment index). Pass
// the years Simulate or SimulateDecade returned as Input.Years, with the
// parameters they were simulated at, or CollectArchiveYears' campaigns as
// Input.Campaigns, and nothing is simulated again; an experiment that needs
// its own scenario (fig1, fig8, fig9, blocklist, vantage) simulates it from
// Input's parameters. An unknown key, or one the input cannot serve, is an
// error.
func Evaluate(in Input, keys ...string) (*Evaluation, error) {
	return analysis.Evaluate(in, keys)
}

// Analyzer ingests an arbitrary time-ordered probe stream through the
// telescope-style SYN filter and the campaign detector — the programmatic
// equivalent of feeding a capture file to cmd/synalyze.
//
// Closed flows are delivered as they close, on the Ingest goroutine, and
// Finish delivers the rest. By default they accumulate and Finish returns
// them all; with the WithOnScan option each goes to the callback instead and
// is never retained, so a long replay runs in memory bounded by the open
// flows (and, sharded, the closed ones awaiting release) rather than by the
// total campaign count.
type Analyzer struct {
	det    core.Ingester
	met    *Metrics
	onScan func(*Scan)
	scans  []*Scan

	accepted, notSYN *obs.Counter
}

// AnalyzerOption configures NewAnalyzer.
type AnalyzerOption func(*analyzerOptions)

type analyzerOptions struct {
	workers int
	metrics *Metrics
	onScan  func(*Scan)
}

// WithWorkers shards the analyzer's campaign detection across n goroutines
// (n <= 1 keeps the sequential detector). Ingest stays single-producer; the
// detected campaign multiset is identical to the sequential analyzer. With
// workers > 1 closed flows are delivered in the canonical (End, Start, Src)
// order, each once no shard can still close one that sorts before it: one
// expiry window plus the shards' lag behind the stream (at most a window and
// a half) of stream time after it ends.
func WithWorkers(n int) AnalyzerOption {
	return func(o *analyzerOptions) { o.workers = n }
}

// WithMetrics uses the given registry for the analyzer's pipeline metrics
// instead of the private one it would otherwise create — share one registry
// to aggregate several analyzers, or to expose the analyzer's metrics
// through an existing sink.
func WithMetrics(reg *Metrics) AnalyzerOption {
	return func(o *analyzerOptions) { o.metrics = reg }
}

// WithOnScan delivers each closed flow to fn instead of accumulating it for
// Finish. fn runs on the Ingest goroutine, and at Finish on Finish's; it
// must not call back into the Analyzer. Finish still flushes and drains
// through the same callback, and then returns nil.
func WithOnScan(fn func(*Scan)) AnalyzerOption {
	return func(o *analyzerOptions) { o.onScan = fn }
}

// NewAnalyzer creates an Analyzer for a telescope of the given size. The
// paper's thresholds (100 distinct destinations, 100 pps extrapolated, 1 h
// expiry) apply at its telescope size and are rescaled below it exactly as
// cmd/synalyze rescales them.
func NewAnalyzer(telescopeSize int, opts ...AnalyzerOption) *Analyzer {
	var o analyzerOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.metrics == nil {
		o.metrics = NewMetrics()
	}
	a := &Analyzer{
		met:      o.metrics,
		onScan:   o.onScan,
		accepted: o.metrics.Counter("analyzer.packets.accepted"),
		notSYN:   o.metrics.Counter("analyzer.drop.not_syn"),
	}
	collect := func(s *Scan) {
		if a.onScan != nil {
			a.onScan(s)
			return
		}
		a.scans = append(a.scans, s)
	}
	a.det = core.NewDetector(core.ScaledConfig(telescopeSize), collect,
		core.WithWorkers(o.workers), core.WithMetrics(o.metrics))
	return a
}

// Ingest processes one probe. Non-SYN packets are ignored, as a telescope
// capture would drop them.
func (a *Analyzer) Ingest(p *Probe) {
	if !p.IsSYN() {
		a.notSYN.Inc()
		return
	}
	a.accepted.Inc()
	a.det.Ingest(p)
}

// Finish flushes open flows and returns every closed flow, qualified
// campaigns and background noise alike. Under WithOnScan the flushed flows
// go to the callback instead and Finish returns nil.
func (a *Analyzer) Finish() []*Scan {
	a.det.FlushAll()
	return a.scans
}

// Stats snapshots the analyzer's pipeline metrics: ingress accept/drop
// counters, detector flow lifecycle, and — with WithWorkers — shard queue
// behaviour. Safe to call from any goroutine while Ingest runs.
func (a *Analyzer) Stats() PipelineSnapshot { return a.met.Snapshot() }

// Segment-store surface, re-exported. A segment store is the campaign
// archive: a directory of bounded sealed segments plus an atomically-
// replaced manifest. Each segment persists detected campaigns (not raw
// probes) in a compressed, zone-map-indexed block format, so scan-level
// analyses re-run as indexed reads instead of re-simulating or
// re-replaying. A SegmentWriter grows the store while Catalogs (and
// synserve) discover new segments without restarting, and a Compactor
// merges runs of small segments LSM-style (see internal/archive).
type (
	// SegmentWriter appends scans to a segment store, sealing bounded
	// segments and publishing each through the manifest.
	SegmentWriter = archive.SegmentWriter
	// SegmentConfig parameterizes OpenSegmentDir (rotation bounds etc.).
	SegmentConfig = archive.SegmentConfig
	// SegmentMeta is one sealed segment's manifest entry.
	SegmentMeta = archive.SegmentMeta
	// Catalog is the read side of a segment store: refreshable, with
	// refcounted immutable views for in-flight queries.
	Catalog = archive.Catalog
	// CatalogConfig parameterizes OpenCatalog.
	CatalogConfig = archive.CatalogConfig
	// CatalogView is one query's frozen segment set; it is a QuerySource.
	CatalogView = archive.CatalogView
	// Compactor merges runs of small sealed segments inside a live store.
	Compactor = archive.Compactor
	// CompactorConfig parameterizes NewCompactor.
	CompactorConfig = archive.CompactorConfig
	// ArchiveReader is one segment's reader (CatalogView.Reader), querying
	// it with zone-map predicate pushdown. Its Query lends each row to emit:
	// the *Scan (with its Ports and Payload) and the *Origin are valid until
	// emit returns, and the next row is loaded into the same memory, so a
	// caller that keeps a row copies it (Scan.Clone, the Origin by value).
	ArchiveReader = archive.Reader
)

// AllScans is the Query predicate (CatalogView, ArchiveReader) that matches
// every scan; a selective read passes a Query's Predicate() instead.
var AllScans = archive.All

// OpenSegmentDir opens (creating if needed) a segment store for appending,
// recovering from any crash the previous writer suffered.
func OpenSegmentDir(dir string, cfg SegmentConfig) (*SegmentWriter, error) {
	return archive.OpenSegmentDir(dir, cfg)
}

// OpenCatalog opens a segment store directory for querying (see
// CatalogConfig.SkipCorrupt: the zero config fails reads of damaged stores).
func OpenCatalog(dir string, cfg CatalogConfig) (*Catalog, error) {
	return archive.OpenCatalog(dir, cfg)
}

// NewCompactor creates a compactor over an open segment store.
func NewCompactor(sw *SegmentWriter, cfg CompactorConfig) *Compactor {
	return archive.NewCompactor(sw, cfg)
}

// ArchiveYear appends one year's campaigns (with origins) to a segment store
// opened with SegmentConfig.Origins.
func ArchiveYear(w *SegmentWriter, c *Campaigns) error {
	return analysis.ArchiveYear(w, c)
}

// CollectArchive rebuilds one year's campaigns from a segment store's view.
// The per-probe tallies of a YearData need the raw probe stream, so the
// analyses that read them do not accept the result.
func CollectArchive(v *CatalogView, year int) (*Campaigns, error) {
	return analysis.CollectArchive(v, year)
}

// CollectArchiveYears loads every calibrated year present in the view.
func CollectArchiveYears(v *CatalogView) ([]*Campaigns, error) {
	return analysis.CollectArchiveYears(v)
}

// PaperTelescopeSize is the monitored-address count of the paper's
// deployment (§3.2).
const PaperTelescopeSize = 71536

// NewPaperTelescope builds the three-partial-/16 deployment of §3.2.
func NewPaperTelescope(seed uint64) (*Telescope, error) {
	return telescope.New(telescope.PaperConfig(seed))
}
