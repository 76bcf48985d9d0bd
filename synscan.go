// Package synscan reproduces the measurement system of "Have you SYN me?
// Characterizing Ten Years of Internet Scanning" (IMC 2024): a network-
// telescope pipeline that groups SYN probes into scan campaigns (§3.4),
// fingerprints the scanning tools behind them (§3.3), enriches origins, and
// regenerates every table and figure of the paper's evaluation on top of a
// calibrated synthetic workload (2015–2024).
//
// Three entry points cover most uses:
//
//   - Simulate runs one measurement year end to end and returns the
//     collected YearData, from which Table1, Table2, Figure2..Figure4 and the
//     per-probe section analyses derive their results; the analyses that read
//     only detected campaigns (Figure5..Figure7, §5.2, §6.3, §6.4) take its
//     Campaigns, which an archive can rebuild without re-simulating.
//   - SimulateDecade runs all ten years with a shared synthetic Internet.
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
	// Table1Row / Table2Row are the paper's table rows.
	Table1Row = analysis.Table1Row
	Table2Row = analysis.Table2Row
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

// Table1 computes the headline table (volume, top ports, tools) from
// collected years; topN controls the ranking depth (the paper uses 5).
func Table1(years []*YearData, topN int) []Table1Row {
	return analysis.Table1(years, topN)
}

// Table2 computes the scanner-type breakdown.
func Table2(years []*YearData) []Table2Row {
	return analysis.Table2(years)
}

// Analyzer ingests an arbitrary time-ordered probe stream through the
// telescope-style SYN filter and the campaign detector — the programmatic
// equivalent of feeding a capture file to cmd/synalyze.
//
// Two delivery models exist. By default closed flows accumulate internally
// and Finish returns them all. With the WithOnScan option they are instead
// delivered to the callback as each flow closes and never retained, so a
// long replay runs in memory bounded by the open-flow table rather than by
// the total campaign count — unless WithWorkers(n > 1) shards detection:
// the shards then hold every closed flow until Finish, so memory grows with
// the campaign count and the callback sees nothing before Finish.
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
// workers > 1 closed flows surface only at Finish (the sharded detector's
// merging flush), in its canonical (End, Start, Src) order, and are held in
// memory until then, WithOnScan or not; sequentially they surface as their
// flows close. It pays for replaying one finite capture, as synalyze
// -workers does, not for a stream that must publish as it goes.
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
// Finish. fn runs on the Ingest goroutine (sequential detection) or on the
// Finish goroutine (sharded detection); it must not call back into the
// Analyzer. Finish still flushes and drains through the same callback, and
// then returns nil. This is the streaming model: nothing is retained after
// delivery, so with sequential detection memory stays bounded by open flows,
// not total campaigns. Under WithWorkers(n > 1) that bound does not hold:
// the shards retain every closed flow until Finish delivers them all.
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

// Campaign-archive surface, re-exported. An archive persists detected
// campaigns (not raw probes) in a compressed, zone-map-indexed block
// format, so scan-level analyses re-run as indexed reads instead of
// re-simulating or re-replaying (see internal/archive).
type (
	// ArchiveWriter spools scans into an archive file or stream.
	ArchiveWriter = archive.Writer
	// ArchiveWriterConfig parameterizes NewArchiveWriter / CreateArchive.
	ArchiveWriterConfig = archive.WriterConfig
	// ArchiveReader queries an archive with zone-map predicate pushdown. Its
	// Query lends each row to emit: the *Scan (with its Ports and Payload)
	// and the *Origin are valid until emit returns, and the next row is
	// loaded into the same memory, so a caller that keeps a row copies it
	// (Scan.Clone, the Origin by value).
	ArchiveReader = archive.Reader
	// ArchiveReaderOption configures OpenArchive (see WithSkipCorrupt).
	ArchiveReaderOption = archive.ReaderOption
)

// AllScans is the ArchiveReader.Query predicate that matches every scan; a
// selective read passes a Query's Predicate() instead.
var AllScans = archive.All

// WithSkipCorrupt opens an archive in degraded mode: blocks failing their
// checksum are skipped and counted (ArchiveReader.CorruptBlocks) instead of
// aborting the query.
func WithSkipCorrupt() ArchiveReaderOption { return archive.WithSkipCorrupt() }

// CreateArchive creates an archive file for writing.
func CreateArchive(path string, cfg ArchiveWriterConfig) (*ArchiveWriter, error) {
	return archive.Create(path, cfg)
}

// OpenArchive opens an archive file for querying.
func OpenArchive(path string, opts ...ArchiveReaderOption) (*ArchiveReader, error) {
	return archive.Open(path, opts...)
}

// Segment-store surface, re-exported. A segment store is the live variant of
// the archive: a directory of bounded sealed segments plus an atomically-
// replaced manifest, grown by a SegmentWriter while Catalogs (and synserve)
// discover new segments without restarting, and tidied by a Compactor that
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
	// CatalogView is one query's frozen segment set.
	CatalogView = archive.CatalogView
	// Compactor merges runs of small sealed segments inside a live store.
	Compactor = archive.Compactor
	// CompactorConfig parameterizes NewCompactor.
	CompactorConfig = archive.CompactorConfig
)

// OpenSegmentDir opens (creating if needed) a segment store for appending,
// recovering from any crash the previous writer suffered.
func OpenSegmentDir(dir string, cfg SegmentConfig) (*SegmentWriter, error) {
	return archive.OpenSegmentDir(dir, cfg)
}

// OpenCatalog opens a segment store for querying.
func OpenCatalog(dir string, cfg CatalogConfig) (*Catalog, error) {
	return archive.OpenCatalog(dir, cfg)
}

// NewCompactor creates a compactor over an open segment store.
func NewCompactor(sw *SegmentWriter, cfg CompactorConfig) *Compactor {
	return archive.NewCompactor(sw, cfg)
}

// ArchiveYear appends one year's campaigns (with origins) to an archive
// writer created with ArchiveWriterConfig.Origins.
func ArchiveYear(w *ArchiveWriter, c *Campaigns) error {
	return analysis.ArchiveYear(w, c)
}

// CollectArchive rebuilds one year's campaigns from an archive. The per-probe
// tallies of a YearData need the raw probe stream, so the analyses that read
// them do not accept the result.
func CollectArchive(rd *ArchiveReader, year int) (*Campaigns, error) {
	return analysis.CollectArchive(rd, year)
}

// CollectArchiveYears loads every calibrated year present in the archive.
func CollectArchiveYears(rd *ArchiveReader) ([]*Campaigns, error) {
	return analysis.CollectArchiveYears(rd)
}

// PaperTelescopeSize is the monitored-address count of the paper's
// deployment (§3.2).
const PaperTelescopeSize = 71536

// NewPaperTelescope builds the three-partial-/16 deployment of §3.2.
func NewPaperTelescope(seed uint64) (*Telescope, error) {
	return telescope.New(telescope.PaperConfig(seed))
}
