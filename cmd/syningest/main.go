// Command syningest turns a telescope capture into a segment store — the
// continuously-growing, directory-backed archive that synserve and syneval
// -archive read — appending every campaign as its flow closes. It is the one
// path from a capture to a store. Flag wiring around internal/capture and
// archive.SegmentWriter.
//
// Given a finished capture it ingests it and exits; with -follow it is the
// daemon, tailing a capture of any format as the telescope writes it. Either
// way it seals bounded segments as campaigns close and publishes each through
// the store manifest, so a concurrently running synserve discovers it within
// one -rescan interval, no restart. -workers shards detection: the campaigns
// are the same at every worker count, in close order at one worker and in
// (End, Start, Src) order above. An optional background compactor merges
// runs of small sealed segments into larger ones, LSM-style, preserving the
// store's emit order byte for byte.
//
// Usage:
//
//	syntelescope -year 2020 -format spool -out capture.spool
//	syningest -dir store/ capture.spool                 # batch: ingest and exit
//	syningest -dir store/ -workers 2 capture.spool      # detection on two goroutines
//	syningest -dir store/ -follow live.spool            # daemon: tail the capture
//	syningest -dir store/ -telescope 4096 capture.pcap  # a pcap header has no size
//	syningest -dir store/ -compact-now                  # one-shot compaction
//	synserve -addr localhost:8080 store/                # queries follow along
//
// The replay loop (-reactive included) and the detector set-up are synalyze's,
// so the store holds the campaigns synalyze reports. A capture run refuses a
// store that already holds segments, batch or -follow alike: a second run of
// one capture would count every campaign twice. SIGINT/SIGTERM seals the open
// segment before exiting; a crash loses only the unsealed segment, whose
// records re-ingest from the capture into a fresh directory.
package main

import (
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
	"github.com/synscan/synscan/internal/capture"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("syningest: ")

	dir := flag.String("dir", "", "segment store directory (required; created if missing)")
	flag.Int("telescope", 4096, "monitored address count (spool header wins unless overridden)")
	minDsts := flag.Int("min-dsts", 0, "campaign threshold on distinct destinations (0 = paper default scaled)")
	workers := flag.Int("workers", 1, "campaign-detector shards; >1 runs detection on that many goroutines")
	reactiveMode := flag.Bool("reactive", false, "admit phase-two TCP segments (handshake ACKs, payload pushes) from a reactive capture instead of dropping all non-SYNs")
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
	reg, finish, err := obs.ParseFlags(obs.Always)
	if err != nil {
		log.Fatal(err)
	}

	if *dir == "" {
		log.Fatal("-dir is required")
	}
	newCompactor := func(sw *archive.SegmentWriter) *archive.Compactor {
		return archive.NewCompactor(sw, archive.CompactorConfig{
			MinRun: *compactMin, MaxInputBytes: *compactMax, Metrics: reg,
		})
	}

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
		comp, total := newCompactor(sw), 0
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
		if err := finish(); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *workers < 1 {
		log.Fatalf("-workers must be at least 1, got %d", *workers)
	}
	if flag.NArg() != 1 {
		log.Fatal("usage: syningest -dir store [flags] capture.{spool,pcap,pcapng}")
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	// In follow mode the capture reader never sees EOF while the daemon runs:
	// reads block-and-poll until new records land, so a record split across
	// two writes is simply waited out, and shutdown surfaces as a clean EOF.
	var src io.Reader = f
	if *follow {
		src = &tailReader{f: f, ctx: ctx, poll: *pollEvery}
	}
	rd, err := capture.Open(src)
	if err != nil {
		log.Fatal(err)
	}
	telSize := capture.TelescopeSize(rd, flag.CommandLine, "telescope")

	sw, err := archive.OpenSegmentDir(*dir, archive.SegmentConfig{
		TelescopeSize:   telSize,
		Metrics:         reg,
		MaxSegmentBytes: *segBytes,
		MaxSegmentScans: uint64(*segScans),
		MaxSegmentAge:   int64(*segAge),
	})
	if err != nil {
		log.Fatal(err)
	}
	if n := len(sw.SealedSegments()); n > 0 {
		log.Fatalf("store %s already holds %d segments; name a new directory", *dir, n)
	}

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
		wg.Add(1)
		go func() {
			defer wg.Done()
			newCompactor(sw).Run(ctx, *compactEvery)
		}()
	}

	var nScans uint64
	det := capture.NewDetector(telSize, *minDsts, *workers, reg, func(s *core.Scan) {
		nScans++
		if err := sw.Add(s); err != nil {
			log.Fatal(err)
		}
	})
	st, err := capture.Replay(rd, det, capture.ReplayConfig{Reactive: *reactiveMode, Metrics: reg})
	// Shutdown can truncate the tail read mid-record; everything complete was
	// already ingested.
	if err != nil && ctx.Err() == nil {
		log.Fatal(err)
	}

	det.FlushAll()
	stop() // stops the seal/compact tickers
	wg.Wait()
	if err := sw.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("ingested %d records, %d campaigns, %d segments, generation %d",
		st.Records, nScans, len(sw.SealedSegments()), sw.Generation())
	if err := finish(); err != nil {
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
