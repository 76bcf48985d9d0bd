package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/packet"
)

// TestDetectorMetricsMatchCounts: the registry's detector counters must
// agree with the detector's own Counts after a run with expiries, and the
// active-flow gauge must return to zero.
func TestDetectorMetricsMatchCounts(t *testing.T) {
	stream := makeMixedStream(20000, 512, 7)
	reg := obs.NewRegistry()
	d := NewDetector(Config{TelescopeSize: testTelescopeSize}, func(*Scan) {},
		WithMetrics(reg))
	for i := range stream {
		d.Ingest(&stream[i])
	}
	d.FlushAll()

	opened, closed, qualified := d.Counts()
	s := reg.Snapshot()
	if got := s.Counter("detector.flows.opened"); got != opened {
		t.Fatalf("opened counter = %d, Counts = %d", got, opened)
	}
	if got := s.Counter("detector.flows.closed"); got != closed {
		t.Fatalf("closed counter = %d, Counts = %d", got, closed)
	}
	if got := s.Counter("detector.flows.qualified"); got != qualified {
		t.Fatalf("qualified counter = %d, Counts = %d", got, qualified)
	}
	if got := s.Counter("detector.packets"); got != uint64(len(stream)) {
		t.Fatalf("packets counter = %d, want %d", got, len(stream))
	}
	if exp := s.Counter("detector.flows.expired"); exp == 0 || exp > closed {
		t.Fatalf("expired counter = %d (closed %d): stream has mid-run gaps", exp, closed)
	}
	if act := s.Gauge("detector.flows.active"); act != 0 {
		t.Fatalf("active gauge = %d after FlushAll", act)
	}
}

// TestDetectorReuseAndSpillMetrics: on the churn stream every opened flow is
// either allocated or taken from the free list, the flush leaves every
// allocated flow on the list, so opened == reused + fresh can be read off the
// detector; and every 64th flow spilled its port set.
func TestDetectorReuseAndSpillMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	d := NewDetector(Config{TelescopeSize: testTelescopeSize}, nil, WithMetrics(reg)).(*Detector)
	c := &churn{d: d}
	const flows = 640
	for i := 0; i < flows; i++ {
		c.flow()
	}
	d.FlushAll()
	s := reg.Snapshot()
	opened, reused, fresh := s.Counter("detector.flows.opened"), s.Counter("detector.flows.reused"), uint64(d.nfree)
	if opened != flows || reused == 0 || opened != reused+fresh {
		t.Fatalf("opened %d, reused %d, fresh (flows on the free list) %d", opened, reused, fresh)
	}
	if got := s.Counter("detector.ports.spilled"); got != flows/64 {
		t.Fatalf("ports.spilled = %d, want %d", got, flows/64)
	}
}

// TestDetectorEndClampMetric: a reordered probe whose time is behind the
// flow's end must bump detector.end_clamp.
func TestDetectorEndClampMetric(t *testing.T) {
	reg := obs.NewRegistry()
	d := NewDetector(Config{TelescopeSize: testTelescopeSize}, nil, WithMetrics(reg))
	mk := func(ts int64) packet.Probe {
		return packet.Probe{Time: ts, Src: 1, Dst: 2, DstPort: 80, Flags: packet.FlagSYN}
	}
	for _, ts := range []int64{100, 200, 150} { // 150 arrives late
		p := mk(ts)
		d.Ingest(&p)
	}
	if got := reg.Snapshot().Counter("detector.end_clamp"); got != 1 {
		t.Fatalf("end_clamp = %d, want 1", got)
	}
}

// TestShardedMetricsRollUp: with workers > 1, lifecycle counters roll up
// losslessly across shards and the router-level metrics appear.
func TestShardedMetricsRollUp(t *testing.T) {
	stream := makeMixedStream(30000, 1024, 9)
	cfg := Config{TelescopeSize: testTelescopeSize}
	reg := obs.NewRegistry()
	d := NewDetector(cfg, func(*Scan) {}, WithWorkers(4), WithMetrics(reg))
	if _, ok := d.(*ShardedDetector); !ok {
		t.Fatalf("WithWorkers(4) built %T, want *ShardedDetector", d)
	}
	for i := range stream {
		d.Ingest(&stream[i])
	}
	d.FlushAll()

	opened, closed, qualified := d.Counts()
	s := reg.Snapshot()
	if got := s.Counter("detector.flows.opened"); got != opened {
		t.Fatalf("opened counter = %d, Counts = %d", got, opened)
	}
	if got := s.Counter("detector.flows.closed"); got != closed {
		t.Fatalf("closed counter = %d, Counts = %d", got, closed)
	}
	if got := s.Counter("detector.flows.qualified"); got != qualified {
		t.Fatalf("qualified counter = %d, Counts = %d", got, qualified)
	}
	if got := s.Counter("detector.packets"); got != uint64(len(stream)) {
		t.Fatalf("packets counter = %d, want %d", got, len(stream))
	}
	if s.Counter("detector.shard.batches") == 0 {
		t.Fatal("no batches recorded")
	}
	if h := s.Histograms["detector.shard.batch_fill"]; h.Count == 0 || h.Max > defaultBatchSize {
		t.Fatalf("batch_fill histogram wrong: %+v", h)
	}
	// The stream's expiry gaps release flows during ingest, then FlushAll
	// releases the rest: more than one release, and nothing left held.
	if h := s.Histograms["detector.shard.merge_ns"]; h.Count < 2 {
		t.Fatalf("merge_ns recorded %d releases, want releases before and at FlushAll", h.Count)
	}
	if got, ok := s.Gauges["detector.shard.merge_buffered"]; !ok || got != 0 {
		t.Fatalf("merge_buffered = %d (present %v) after FlushAll, want 0", got, ok)
	}
	if _, ok := s.Gauges["detector.shard.queue_depth"]; !ok {
		t.Fatal("aggregate queue-depth gauge missing")
	}
	if _, ok := s.Gauges["detector.shard.00.queue_depth"]; !ok {
		t.Fatal("per-shard queue-depth gauge missing")
	}
	if got := s.Gauge("detector.shard.queue_depth"); got != 0 {
		t.Fatalf("queue depth = %d after FlushAll", got)
	}
}

// TestSnapshotDuringShardedIngest scrapes Registry.Snapshot from a separate
// goroutine while the sharded detector ingests at full rate — the
// acceptance gate for race-safe observability (run with -race).
func TestSnapshotDuringShardedIngest(t *testing.T) {
	stream := makeMixedStream(60000, 2048, 11)
	reg := obs.NewRegistry()
	d := NewDetector(Config{TelescopeSize: testTelescopeSize}, func(*Scan) {},
		WithWorkers(4), WithMetrics(reg))

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			s := reg.Snapshot()
			if s.Counter("detector.flows.closed") > s.Counter("detector.flows.opened") {
				panic("closed overtook opened")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for i := range stream {
		d.Ingest(&stream[i])
	}
	d.FlushAll()
	close(done)
	wg.Wait()

	if got := reg.Snapshot().Counter("detector.packets"); got != uint64(len(stream)) {
		t.Fatalf("packets counter = %d, want %d", got, len(stream))
	}
}

// TestNewDetectorOptionEquivalence: the options constructor and the
// deprecated explicit constructors produce identical campaign multisets.
func TestNewDetectorOptionEquivalence(t *testing.T) {
	stream := makeMixedStream(20000, 512, 13)
	cfg := Config{TelescopeSize: testTelescopeSize}
	run := func(mk func(emit func(*Scan)) Ingester) []*Scan {
		var scans []*Scan
		d := mk(func(s *Scan) { scans = append(scans, s) })
		for i := range stream {
			d.Ingest(&stream[i])
		}
		d.FlushAll()
		return canonicalScans(scans)
	}
	viaOptions := run(func(emit func(*Scan)) Ingester {
		return NewDetector(cfg, emit, WithWorkers(3))
	})
	viaWrapper := run(func(emit func(*Scan)) Ingester {
		return newShardedDetector(shardedConfig{Config: cfg, Workers: 3}, emit, nil)
	})
	sequential := run(func(emit func(*Scan)) Ingester {
		return NewDetector(cfg, emit)
	})
	if len(viaOptions) != len(viaWrapper) || len(viaOptions) != len(sequential) {
		t.Fatalf("scan counts diverge: options=%d wrapper=%d sequential=%d",
			len(viaOptions), len(viaWrapper), len(sequential))
	}
	for i := range viaOptions {
		if !reflect.DeepEqual(*viaOptions[i], *viaWrapper[i]) ||
			!reflect.DeepEqual(*viaOptions[i], *sequential[i]) {
			t.Fatalf("scan %d diverges across constructors", i)
		}
	}
}
