// Command synalyze reads a telescope capture — pcap or compact flowlog
// spool, detected by magic — and runs the paper's methodology over it: SYN
// filtering, campaign detection (§3.4), tool fingerprinting (§3.3), and
// summary reporting.
//
// Usage:
//
//	syntelescope -year 2020 -out capture.pcap
//	syntelescope -year 2020 -format spool -out capture.spool
//	synalyze -telescope 4096 capture.pcap
//	synalyze capture.spool            # telescope size from the header
//
// For pcap input the -telescope flag must match the capture's monitored-
// address count: rate and coverage extrapolation depend on it. Spools
// carry it in their header.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/flowlog"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/pcap"
	"github.com/synscan/synscan/internal/pcapng"
	"github.com/synscan/synscan/internal/report"
	"github.com/synscan/synscan/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("synalyze: ")

	telSize := flag.Int("telescope", 4096, "monitored address count of the capture")
	minDsts := flag.Int("min-dsts", 0, "campaign threshold on distinct destinations (0 = paper default scaled)")
	topN := flag.Int("top", 10, "ranking depth for the port tables")
	workers := flag.Int("workers", 1, "campaign-detector shards; >1 runs detection on that many goroutines")
	reactiveMode := flag.Bool("reactive", false, "admit phase-two TCP segments (handshake ACKs, payload pushes) from a reactive capture instead of dropping all non-SYNs")
	archiveOut := flag.String("archive", "", "persist every detected campaign to this archive file as it closes (queryable with syneval -archive / synserve)")
	metricsOut := flag.String("metrics", "", `write a final pipeline-metrics snapshot as JSON to this file ("-" = stdout)`)
	metricsEvery := flag.Duration("metrics-interval", 0, "periodically dump metrics to stderr at this interval (0 = off)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *workers < 1 {
		log.Fatalf("-workers must be at least 1, got %d", *workers)
	}
	if *pprofAddr != "" {
		if err := obs.StartPprof(*pprofAddr); err != nil {
			log.Fatal(err)
		}
	}
	// The registry stays nil unless some sink wants it: every instrumented
	// path below no-ops on the nil registry's nil metrics.
	var reg *obs.Registry
	if *metricsOut != "" || *metricsEvery > 0 {
		reg = obs.NewRegistry()
	}
	defer obs.StartDump(reg, os.Stderr, *metricsEvery)()

	if flag.NArg() != 1 {
		log.Fatal("usage: synalyze [flags] capture.{pcap,spool}")
	}
	if *archiveOut != "" && *archiveOut == flag.Arg(0) {
		log.Fatalf("-archive %s would overwrite the input capture", *archiveOut)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	// Auto-detect the capture format by magic: flowlog spools start with
	// "SYNL", pcapng sections with 0x0A0D0D0A, anything else is treated as
	// classic pcap.
	br := bufio.NewReaderSize(f, 1<<16)
	magic, err := br.Peek(4)
	if err != nil {
		log.Fatalf("reading %s: %v", flag.Arg(0), err)
	}
	isSpool := [4]byte(magic) == flowlog.Magic
	isNG := [4]byte(magic) == pcapng.Magic

	// next reads the capture's next record into p, whatever the format;
	// decoded is false for a frame that does not parse as a probe. One
	// Decoder and one Probe serve the whole replay: Decode reuses the probe's
	// payload backing, so the replay loop runs allocation-free (the detector
	// copies anything it keeps past the call).
	var next func(p *packet.Probe) (decoded bool, err error)
	var dec packet.Decoder
	mTruncated := reg.Counter("pcap.records.truncated")
	switch {
	case isSpool:
		spoolR, err := flowlog.NewReader(br)
		if err != nil {
			log.Fatal(err)
		}
		// The spool header records the telescope size; honor it unless the
		// operator gave -telescope explicitly (whatever the value).
		telGiven := false
		flag.Visit(func(f *flag.Flag) { telGiven = telGiven || f.Name == "telescope" })
		if spoolR.TelescopeSize() > 0 && !telGiven {
			*telSize = spoolR.TelescopeSize()
		}
		next = func(p *packet.Probe) (bool, error) { return true, spoolR.Next(p) }
	case isNG:
		ngR, err := pcapng.NewReader(br)
		if err != nil {
			log.Fatal(err)
		}
		next = func(p *packet.Probe) (bool, error) {
			ts, data, _, err := ngR.Next()
			if err != nil || dec.Decode(data, p) != nil {
				return false, err
			}
			p.Time = ts
			return true, nil
		}
	default:
		pcapR, err := pcap.NewReader(br)
		if err != nil {
			log.Fatal(err)
		}
		next = func(p *packet.Probe) (bool, error) {
			rec, err := pcapR.Next()
			if err != nil {
				return false, err
			}
			if rec.Truncated() {
				mTruncated.Inc()
			}
			if dec.Decode(rec.Data, p) != nil {
				return false, nil
			}
			p.Time = rec.Time
			return true, nil
		}
	}

	// Thresholds scale with the telescope size (shared with syningest so the
	// batch and live paths detect identical campaigns).
	cfg := core.ScaledConfig(*telSize)
	if *minDsts > 0 {
		cfg.MinDistinctDsts = *minDsts
	}

	// Write-on-detect: every closed flow is spooled into the archive from
	// the same goroutine that collects it (sequentially during ingest,
	// sharded at FlushAll), so no extra synchronization is needed. The
	// replay path has no enrichment registry, so the archive is origin-less.
	var aw *archive.Writer
	if *archiveOut != "" {
		var err error
		aw, err = archive.Create(*archiveOut, archive.WriterConfig{
			TelescopeSize: *telSize, Metrics: reg,
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// With -workers > 1 the detector shards per source address: replay
	// parses and routes on this goroutine while detection runs on the
	// worker pool. Results are identical to the sequential detector (see
	// core.ShardedDetector); scans surface at FlushAll.
	var scans []*core.Scan
	collect := func(s *core.Scan) {
		scans = append(scans, s)
		if aw != nil {
			if err := aw.Add(s); err != nil {
				log.Fatal(err)
			}
		}
	}
	det := core.NewDetector(cfg, collect,
		core.WithWorkers(*workers), core.WithMetrics(reg))

	// The replay's own ingress filter mirrors the telescope naming so one
	// snapshot schema covers both the simulator and the replay path.
	mAccepted := reg.Counter("telescope.packets.accepted")
	mNotSYN := reg.Counter("telescope.drop.not_syn")
	mUnparsed := reg.Counter("telescope.drop.unparsed")

	packetsPerPort := stats.NewCounter[uint16]()
	var total, parsed, syn, phase2 uint64
	var p packet.Probe
	replaySpan := obs.StartSpan(reg.Histogram("replay.read_ns"))
	for {
		decoded, err := next(&p)
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		total++
		if !decoded {
			mUnparsed.Inc()
			continue
		}
		parsed++
		// The replay ingress filter: a passive capture is SYN-only; a
		// reactive capture (-reactive) also carries the phase-two segments
		// the responder admitted, which the detector links into two-phase
		// campaigns. SYN-ACK backscatter stays dropped either way.
		switch {
		case p.IsSYN():
			syn++
		case *reactiveMode && p.IsTCP() && !p.IsSYNACK():
			phase2++
		default:
			mNotSYN.Inc()
			continue
		}
		mAccepted.Inc()
		packetsPerPort.Inc(p.DstPort)
		det.Ingest(&p)
	}
	replaySpan.End()

	flushSpan := obs.StartSpan(reg.Histogram("replay.flush_ns"))
	det.FlushAll()
	flushSpan.End()

	if aw != nil {
		if err := aw.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("archived %d campaigns to %s", len(scans), *archiveOut)
	}

	qualified := 0
	toolHist := map[string]uint64{}
	var speeds []float64
	for _, s := range scans {
		if !s.Qualified {
			continue
		}
		qualified++
		toolHist[s.Tool.String()]++
		speeds = append(speeds, s.RatePPS)
	}

	fmt.Printf("records %d, parsed %d, SYN %d\n", total, parsed, syn)
	if *reactiveMode {
		var twoPhase int
		for _, s := range scans {
			if s.TwoPhase {
				twoPhase++
			}
		}
		fmt.Printf("phase-2 segments %d, two-phase campaigns %d\n", phase2, twoPhase)
	}
	fmt.Printf("flows closed %d, qualified campaigns %d\n\n", len(scans), qualified)

	report.Histogram(os.Stdout, "campaigns by tool", toolHist)
	fmt.Println()

	t := report.NewTable("port", "packets", "share")
	for _, kv := range packetsPerPort.TopK(*topN) {
		t.AddRow(fmt.Sprint(kv.Key), fmt.Sprint(kv.Count),
			report.Pct(float64(kv.Count)/float64(packetsPerPort.Total())))
	}
	fmt.Println("top ports by packets:")
	t.WriteTo(os.Stdout)

	if len(speeds) > 0 {
		fmt.Println()
		report.CDF(os.Stdout, "extrapolated campaign speed (pps)", stats.NewECDF(speeds))
	}

	if *metricsOut != "" {
		if err := obs.WriteSnapshotFile(reg.Snapshot(), *metricsOut); err != nil {
			log.Fatal(err)
		}
	}
}
