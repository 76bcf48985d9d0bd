// Command syningest runs live campaign detection over a flowlog spool and
// appends every closed flow to a segment store — the continuously-growing,
// directory-backed archive that synserve can query while it is still being
// written.
//
// Where synalyze is the batch path (replay a finished capture, write one
// sealed archive, print the report), syningest is the daemon: it tails a
// spool as the telescope writes it, seals bounded segments as campaigns
// close, and publishes each through the store manifest so a concurrently
// running synserve discovers it within one -rescan interval, no restart. An
// optional background compactor merges runs of small sealed segments into
// larger ones, LSM-style, preserving the store's emit order byte for byte.
//
// Usage:
//
//	syntelescope -year 2020 -format spool -out capture.spool
//	syningest -dir store/ capture.spool                 # batch: ingest and exit
//	syningest -dir store/ -follow live.spool            # daemon: tail the spool
//	syningest -dir store/ -compact-now                  # one-shot compaction
//
//	synserve -addr localhost:8080 store/                # queries follow along
//
// Detection thresholds scale with the telescope size exactly as synalyze's
// do (core.ScaledConfig), so the live path and a later batch replay of the
// same capture detect identical campaigns. SIGINT/SIGTERM seals the open
// segment before exiting; a crash loses only the unsealed segment, whose
// records re-ingest from the spool.
package main

import (
	"bufio"
	"context"
	"flag"
	"io"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/flowlog"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/packet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("syningest: ")

	dir := flag.String("dir", "", "segment store directory (required; created if missing)")
	telSize := flag.Int("telescope", 4096, "monitored address count (spool header wins unless overridden)")
	minDsts := flag.Int("min-dsts", 0, "campaign threshold on distinct destinations (0 = paper default scaled)")
	workers := flag.Int("workers", 1, "campaign-detector shards")
	segBytes := flag.Int64("segment-bytes", 4<<20, "seal the open segment at this on-disk size")
	segScans := flag.Int64("segment-scans", 0, "seal the open segment at this many campaigns (0 = default)")
	segAge := flag.Duration("segment-age", 0, "seal once the open segment spans this much record time (0 = off)")
	sealEvery := flag.Duration("seal-every", 30*time.Second, "wall-clock seal interval so quiet periods still publish (0 = off)")
	follow := flag.Bool("follow", false, "tail the spool: poll for new records at EOF instead of exiting")
	pollEvery := flag.Duration("poll", 200*time.Millisecond, "EOF poll interval in -follow mode")
	compactEvery := flag.Duration("compact-every", 0, "background compaction interval (0 = no compactor)")
	compactMin := flag.Int("compact-min", archive.DefaultCompactMinRun, "minimum run of small segments worth merging")
	compactMax := flag.Int64("compact-max-bytes", archive.DefaultCompactMaxInputBytes, "segments at or above this size are never merge inputs")
	compactNow := flag.Bool("compact-now", false, "drain all eligible compactions, then exit (no spool needed)")
	metricsOut := flag.String("metrics", "", `write a final metrics snapshot as JSON to this file ("-" = stdout)`)
	metricsEvery := flag.Duration("metrics-interval", 0, "periodically dump metrics to stderr at this interval (0 = off)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address")
	flag.Parse()

	if *dir == "" {
		log.Fatal("-dir is required")
	}
	if *workers < 1 {
		log.Fatalf("-workers must be at least 1, got %d", *workers)
	}
	if *pprofAddr != "" {
		if err := obs.StartPprof(*pprofAddr); err != nil {
			log.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	defer obs.StartDump(reg, os.Stderr, *metricsEvery)()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *compactNow {
		if flag.NArg() != 0 {
			log.Fatal("-compact-now takes no spool argument")
		}
		sw, err := archive.OpenSegmentDir(*dir, archive.SegmentConfig{Metrics: reg})
		if err != nil {
			log.Fatal(err)
		}
		comp := archive.NewCompactor(sw, archive.CompactorConfig{
			MinRun: *compactMin, MaxInputBytes: *compactMax, Metrics: reg,
		})
		total := 0
		for {
			n, err := comp.CompactOnce()
			if err != nil {
				log.Fatal(err)
			}
			if n == 0 {
				break
			}
			total += n
		}
		if err := sw.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("compacted %d segments in %s", total, *dir)
		writeMetrics(reg, *metricsOut)
		return
	}

	if flag.NArg() != 1 {
		log.Fatal("usage: syningest -dir store [flags] capture.spool")
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	// In follow mode the spool reader never sees EOF while the daemon runs:
	// reads block-and-poll until new records land, so a record split across
	// two writes is simply waited out, and shutdown surfaces as a clean EOF.
	var src io.Reader = f
	if *follow {
		src = &tailReader{f: f, ctx: ctx, poll: *pollEvery}
	}
	spool, err := flowlog.NewReader(bufio.NewReaderSize(src, 1<<16))
	if err != nil {
		log.Fatal(err)
	}
	// The spool header records the telescope size; honor it unless the
	// operator gave -telescope explicitly (whatever the value).
	telGiven := false
	flag.Visit(func(f *flag.Flag) { telGiven = telGiven || f.Name == "telescope" })
	if spool.TelescopeSize() > 0 && !telGiven {
		*telSize = spool.TelescopeSize()
	}

	sw, err := archive.OpenSegmentDir(*dir, archive.SegmentConfig{
		TelescopeSize:   *telSize,
		Metrics:         reg,
		MaxSegmentBytes: *segBytes,
		MaxSegmentScans: uint64(*segScans),
		MaxSegmentAge:   int64(*segAge),
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("store %s: %d segments at open, generation %d",
		*dir, len(sw.SealedSegments()), sw.Generation())

	var wg sync.WaitGroup
	if *sealEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(*sealEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := sw.Seal(); err != nil {
						log.Printf("seal: %v", err)
					}
				}
			}
		}()
	}
	if *compactEvery > 0 {
		comp := archive.NewCompactor(sw, archive.CompactorConfig{
			MinRun: *compactMin, MaxInputBytes: *compactMax, Metrics: reg,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			comp.Run(ctx, *compactEvery)
		}()
	}

	cfg := core.ScaledConfig(*telSize)
	if *minDsts > 0 {
		cfg.MinDistinctDsts = *minDsts
	}
	var nScans uint64
	collect := func(s *core.Scan) {
		nScans++
		if err := sw.Add(s); err != nil {
			log.Fatal(err)
		}
	}
	det := core.NewDetector(cfg, collect,
		core.WithWorkers(*workers), core.WithMetrics(reg))

	mAccepted := reg.Counter("telescope.packets.accepted")
	mNotSYN := reg.Counter("telescope.drop.not_syn")
	var total uint64
	var p packet.Probe
	for {
		if err := spool.Next(&p); err == io.EOF {
			break
		} else if err != nil {
			if ctx.Err() != nil {
				// Shutdown can truncate the tail read mid-record; everything
				// complete was already ingested.
				break
			}
			log.Fatal(err)
		}
		total++
		if !p.IsSYN() {
			mNotSYN.Inc()
			continue
		}
		mAccepted.Inc()
		det.Ingest(&p)
	}

	det.FlushAll()
	stop() // stops the seal/compact tickers
	wg.Wait()
	if err := sw.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("ingested %d records, %d campaigns, %d segments, generation %d",
		total, nScans, len(sw.SealedSegments()), sw.Generation())
	writeMetrics(reg, *metricsOut)
}

func writeMetrics(reg *obs.Registry, path string) {
	if path == "" {
		return
	}
	if err := obs.WriteSnapshotFile(reg.Snapshot(), path); err != nil {
		log.Fatal(err)
	}
}

// tailReader turns EOF into wait-and-retry until ctx is done, so a spool
// still being written reads like an endless stream. The final EOF (after
// cancellation) is the reader's clean termination signal.
type tailReader struct {
	f    *os.File
	ctx  context.Context
	poll time.Duration
}

func (t *tailReader) Read(p []byte) (int, error) {
	for {
		n, err := t.f.Read(p)
		if n > 0 || (err != nil && err != io.EOF) {
			return n, err
		}
		select {
		case <-t.ctx.Done():
			return 0, io.EOF
		case <-time.After(t.poll):
		}
	}
}
