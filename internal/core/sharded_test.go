package core

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
)

// makeMixedStream builds a deterministic time-ordered stream over many
// sources with expiry-inducing gaps, mixing tools so classification paths
// are exercised.
func makeMixedStream(n, sources int, seed uint64) []packet.Probe {
	r := rng.New(seed)
	probers := make([]tools.Prober, sources)
	for i := range probers {
		probers[i] = tools.NewProber(tools.Tools[i%len(tools.Tools)],
			uint32(i+1), r.DeriveN("src", uint64(i)))
	}
	stream := make([]packet.Probe, n)
	tm := int64(0)
	for i := 0; i < n; i++ {
		p := probers[i%sources].Probe(uint32(i), uint16(20+i%7*1000))
		tm += int64(r.Intn(8)) * int64(time.Millisecond)
		if i > 0 && i%(n/4) == 0 {
			tm += 2 * int64(time.Hour) // force mid-stream expiries
		}
		p.Time = tm
		stream[i] = p
	}
	return stream
}

// canonicalScans sorts a scan list by the sharded detector's merge order so
// that sequential and sharded outputs are comparable.
func canonicalScans(scans []*Scan) []*Scan {
	out := append([]*Scan(nil), scans...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Src < b.Src
	})
	return out
}

func runSequential(t *testing.T, cfg Config, stream []packet.Probe) ([]*Scan, [3]uint64) {
	t.Helper()
	var scans []*Scan
	d := NewDetector(cfg, func(s *Scan) { scans = append(scans, s) })
	for i := range stream {
		d.Ingest(&stream[i])
	}
	d.FlushAll()
	var c [3]uint64
	c[0], c[1], c[2] = d.Counts()
	return scans, c
}

func runSharded(t *testing.T, cfg shardedConfig, stream []packet.Probe) (*ShardedDetector, []*Scan) {
	t.Helper()
	var scans []*Scan
	sd := newShardedDetector(cfg, func(s *Scan) { scans = append(scans, s) }, nil)
	for i := range stream {
		p := stream[i] // copy: Ingest may retain batches past the call
		sd.Ingest(&p)
	}
	sd.FlushAll()
	return sd, scans
}

// sameScans fails unless got, as emitted, equals want scan for scan.
func sameScans(t *testing.T, what string, want, got []*Scan) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scans, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(*want[i], *got[i]) {
			t.Fatalf("%s: scan %d differs:\n want: %+v\n got:  %+v", what, i, *want[i], *got[i])
		}
	}
}

// TestShardedDifferential: for every worker count the sharded detector must
// emit the sequential detector's Scans — same qualified set, ports, counts —
// in its own order: the sequential close order at one worker, the canonical
// sort of it above, as emitted and not re-sorted. Its Counts (the roll-up
// over shards) must equal the sequential detector's.
func TestShardedDifferential(t *testing.T) {
	stream := makeMixedStream(20000, 600, 7)
	cfg := Config{TelescopeSize: testTelescopeSize}
	seq, seqCounts := runSequential(t, cfg, stream)
	seqSorted := canonicalScans(seq)

	for workers := 1; workers <= 8; workers++ {
		scfg := shardedConfig{
			Config:  cfg,
			Workers: workers,
			// Small batches and frequent watermarks stress the routing and
			// broadcast paths, not just the happy case.
			BatchSize:         64,
			WatermarkInterval: int64(10 * time.Minute),
		}
		sd, got := runSharded(t, scfg, stream)
		want := seqSorted
		if workers == 1 {
			want = seq
		}
		sameScans(t, fmt.Sprintf("workers=%d", workers), want, got)
		opened, closed, qualified := sd.Counts()
		if [3]uint64{opened, closed, qualified} != seqCounts {
			t.Fatalf("workers=%d: counts (%d,%d,%d), sequential %v",
				workers, opened, closed, qualified, seqCounts)
		}
		if sd.ActiveFlows() != 0 {
			t.Fatalf("workers=%d: %d active after FlushAll", workers, sd.ActiveFlows())
		}
	}
}

// TestShardedSingleWorkerBitIdentical: with one shard, output must be
// byte-identical to the sequential detector including emit order.
func TestShardedSingleWorkerBitIdentical(t *testing.T) {
	stream := makeMixedStream(12000, 400, 11)
	cfg := Config{TelescopeSize: testTelescopeSize}
	seq, _ := runSequential(t, cfg, stream)
	_, got := runSharded(t, shardedConfig{Config: cfg, Workers: 1, BatchSize: 128}, stream)
	if len(got) != len(seq) {
		t.Fatalf("%d scans, sequential %d", len(got), len(seq))
	}
	for i := range seq {
		a, b := fmt.Sprintf("%+v", *seq[i]), fmt.Sprintf("%+v", *got[i])
		if a != b {
			t.Fatalf("scan %d differs in content or order:\n seq:     %s\n sharded: %s", i, a, b)
		}
	}
}

// TestShardedWatermarkExpiresIdleShard: a shard whose own sources went
// silent must still close its flows as the rest of the stream advances —
// without waiting for FlushAll.
func TestShardedWatermarkExpiresIdleShard(t *testing.T) {
	sd := newShardedDetector(shardedConfig{
		Config:            Config{TelescopeSize: testTelescopeSize},
		Workers:           4,
		BatchSize:         1, // every probe ships immediately
		WatermarkInterval: int64(5 * time.Minute),
	}, nil, nil)
	// One probe from the idle source, then a long stream of probes from a
	// source on a different shard marching time past the expiry window.
	idle := uint32(1)
	busy := uint32(2)
	for busy == idle || sd.shardOf(busy) == sd.shardOf(idle) {
		busy++
	}
	p := packet.Probe{Time: 0, Src: idle, Dst: 1, DstPort: 80, Flags: packet.FlagSYN}
	sd.Ingest(&p)
	deadline := time.Now().Add(10 * time.Second)
	tm := int64(0)
	for {
		tm += int64(10 * time.Minute)
		q := packet.Probe{Time: tm, Src: busy, Dst: 2, DstPort: 80, Flags: packet.FlagSYN}
		sd.Ingest(&q)
		if tm > int64(2*time.Hour) {
			// The watermark has passed idle's end plus expiry; once the
			// idle shard drains its queue the flow must close.
			time.Sleep(time.Millisecond)
			if _, closed, _ := sd.Counts(); closed >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("idle shard never expired its flow via watermarks")
			}
		}
	}
	sd.FlushAll()
	if opened, closed, _ := sd.Counts(); opened != 2 || closed != 2 {
		t.Fatalf("opened=%d closed=%d, want 2/2", opened, closed)
	}
}

// TestShardedConcurrentIngest drives the detector from several producer
// goroutines over disjoint source sets while another goroutine reads the
// counters — the -race exercise for the routing and roll-up paths.
func TestShardedConcurrentIngest(t *testing.T) {
	const producers = 4
	const perProducer = 4000
	var scans []*Scan
	sd := newShardedDetector(shardedConfig{
		Config:    Config{TelescopeSize: testTelescopeSize},
		Workers:   4,
		BatchSize: 32,
	}, func(s *Scan) { scans = append(scans, s) }, nil)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sd.ActiveFlows()
				sd.Counts()
			}
		}
	}()

	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			r := rng.New(uint64(pr) + 1)
			for i := 0; i < perProducer; i++ {
				src := uint32(pr)<<24 | uint32(i%50+1) // disjoint per producer
				p := packet.Probe{
					Time:    int64(i) * int64(time.Millisecond),
					Src:     src,
					Dst:     r.Uint32(),
					DstPort: 443,
					Flags:   packet.FlagSYN,
				}
				sd.Ingest(&p)
			}
		}(pr)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	sd.FlushAll()

	var total uint64
	for _, s := range scans {
		total += s.Packets
	}
	if total != producers*perProducer {
		t.Fatalf("packets accounted %d, want %d", total, producers*perProducer)
	}
	opened, closed, _ := sd.Counts()
	if opened != closed || int(closed) != len(scans) {
		t.Fatalf("opened=%d closed=%d scans=%d", opened, closed, len(scans))
	}
	if len(scans) != producers*50 {
		t.Fatalf("%d flows, want %d", len(scans), producers*50)
	}
}

// TestShardedIngestAfterFlushPanics pins the terminal contract of FlushAll.
func TestShardedIngestAfterFlushPanics(t *testing.T) {
	sd := newShardedDetector(shardedConfig{Config: Config{TelescopeSize: 10}, Workers: 2}, nil, nil)
	sd.FlushAll()
	sd.FlushAll() // second flush is a no-op, not a panic
	defer func() {
		if recover() == nil {
			t.Fatal("Ingest after FlushAll must panic")
		}
	}()
	p := packet.Probe{Time: 1, Src: 1, Dst: 1, DstPort: 80, Flags: packet.FlagSYN}
	sd.Ingest(&p)
}

// TestShardedDefaults checks the zero-config completion of the batching knobs.
func TestShardedDefaults(t *testing.T) {
	sd := newShardedDetector(shardedConfig{Config: Config{TelescopeSize: 10}, Workers: 2}, nil, nil)
	if sd.cfg.BatchSize != defaultBatchSize || sd.cfg.QueueDepth != defaultQueueDepth {
		t.Fatalf("defaults not applied: %+v", sd.cfg)
	}
	if sd.cfg.WatermarkInterval != DefaultExpiry/4 {
		t.Fatalf("WatermarkInterval = %d", sd.cfg.WatermarkInterval)
	}
	sd.FlushAll()
}

// TestShardedReleasesBehindWatermark: over a replay twelve expiry windows
// long, closed flows reach emit while ingest runs, not at FlushAll, and the
// merge buffer stays under the bound the ShardedDetector comment states —
// between the releases at broadcasts k and k+1, only the flows that end in
// [W(k−QueueDepth−1), W(k+1)) − Expiry, W(k) being the k-th watermark.
func TestShardedReleasesBehindWatermark(t *testing.T) {
	const epochs, perEpoch, sources = 24, 2500, 100
	cfg := Config{TelescopeSize: testTelescopeSize}
	// A fresh set of sources every half hour of stream time (2500 probes
	// 720 ms apart), each silent once its half hour ends: flows close all
	// through the replay.
	r := rng.New(3)
	stream := make([]packet.Probe, epochs*perEpoch)
	for i := range stream {
		stream[i] = packet.Probe{
			Time: int64(i+1) * int64(720*time.Millisecond),
			Src:  uint32(1 + i/perEpoch*sources + r.Intn(sources)),
			Dst:  r.Uint32(), DstPort: 80, Flags: packet.FlagSYN,
		}
	}
	seq, _ := runSequential(t, cfg, stream)

	reg := obs.NewRegistry()
	var emitted []*Scan
	sd := NewDetector(cfg, func(s *Scan) { emitted = append(emitted, s) },
		WithWorkers(4), WithMetrics(reg)).(*ShardedDetector)
	held := reg.Gauge("detector.shard.merge_buffered")
	var peak int64
	for off := 0; off < len(stream); off += 100 {
		sd.IngestBatch(stream[off : off+100])
		peak = max(peak, held.Value())
	}
	beforeFlush := len(emitted)
	sd.FlushAll()
	sameScans(t, "long replay", canonicalScans(seq), emitted)
	if beforeFlush < len(seq)/2 {
		t.Fatalf("%d of %d scans reached emit before FlushAll", beforeFlush, len(seq))
	}

	// The watermarks the router broadcasts, and the bound they imply.
	var wms []int64
	var maxTime, last int64
	for i := range stream {
		maxTime = max(maxTime, stream[i].Time)
		if maxTime-last >= sd.cfg.WatermarkInterval {
			last = maxTime
			wms = append(wms, maxTime)
		}
	}
	w := func(k int) int64 {
		switch {
		case k < 1:
			return 0
		case k > len(wms):
			return maxTime
		}
		return wms[k-1]
	}
	bound := 0
	for k := 0; k <= len(wms); k++ {
		lo, hi := w(k-sd.cfg.QueueDepth-1)-cfg.Expiry, w(k+1)-cfg.Expiry
		n := 0
		for _, s := range seq {
			if s.End >= lo && s.End < hi {
				n++
			}
		}
		bound = max(bound, n)
	}
	t.Logf("merge buffer peak %d flows, bound %d, %d flows in all, %d emitted before FlushAll",
		peak, bound, len(seq), beforeFlush)
	if peak > int64(bound) || bound > len(seq)/4 {
		t.Fatalf("merge buffer peaked at %d flows; bound %d of %d flows", peak, bound, len(seq))
	}
	if got := held.Value(); got != 0 {
		t.Fatalf("merge_buffered = %d after FlushAll", got)
	}
}
