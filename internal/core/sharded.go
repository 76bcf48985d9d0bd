package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/packet"
)

// Sharded-detector defaults.
const (
	// defaultBatchSize is the number of probes handed to a shard per
	// channel message. Batching amortizes the channel synchronization over
	// many packets; 512 probes is ~18 KiB per batch.
	defaultBatchSize = 512
	// defaultQueueDepth is the number of batches buffered per shard before
	// Ingest blocks — the backpressure bound. Total buffering per shard is
	// BatchSize*QueueDepth probes.
	defaultQueueDepth = 4
)

// shardedConfig parameterizes a ShardedDetector. The embedded Config is the
// per-shard detector configuration. WithWorkers sets only Workers; the other
// knobs are the seams the package's tests stress routing with, and their
// zero values are completed with defaults at construction.
type shardedConfig struct {
	Config

	// Workers is the number of detector shards, each served by its own
	// goroutine (at least 1).
	Workers int
	// BatchSize is the number of probes per batch routed to a shard
	// (default defaultBatchSize).
	BatchSize int
	// QueueDepth is the number of batches buffered per shard before Ingest
	// blocks (default defaultQueueDepth).
	QueueDepth int
	// WatermarkInterval is the stream-time interval, in nanoseconds,
	// between time-watermark broadcasts (default Expiry/4). Watermarks
	// advance every shard's expiry clock even when the shard's own sources
	// are idle, bounding how long expired flows stay resident, and set the
	// bound before which closed flows are released.
	WatermarkInterval int64
	// StallHook, when non-nil, is called by each worker goroutine with its
	// shard index before it processes a message. It exists so tests can
	// inject scheduling skew — e.g. a faultinject.ShardStaller that delays
	// one shard — and assert that results stay deterministic under
	// backpressure. It must not call back into the detector.
	StallHook func(shard int)
}

// shard is one worker: a private sequential Detector fed by a bounded
// channel of probe batches. Only the worker goroutine touches det and
// closing; held and watermark are the hand-off to the router, and the atomic
// counters the cross-goroutine observation window.
type shard struct {
	ch      chan shardMsg
	det     *Detector
	closing []*Scan // closed during the current message, not yet held

	mu   sync.Mutex
	held scanHeap // closed flows awaiting release; guarded by mu
	// watermark is the last watermark this shard has processed, stored
	// only once every flow that message closed is in held.
	watermark atomic.Int64

	opened, closed, qualified atomic.Uint64
	active                    atomic.Int64
}

// shardMsg is one unit of work: a batch of probes, optionally followed by a
// clock watermark. Watermarks ride behind any probes already routed so that
// per-source stream order is preserved. The batch is a pointer into the
// router's sync.Pool so the worker can return it (and its per-slot payload
// backings) without allocating a fresh slice header per recycle.
type shardMsg struct {
	batch     *[]packet.Probe
	watermark int64 // advance the shard clock to this time if > 0
}

// ShardedDetector runs N private Detectors in parallel, routing each probe
// to the shard that owns its source address (a hash of the source), so every
// source's probes are processed by one detector in arrival order and the
// campaign semantics of §3.4 are unchanged.
//
// Ingest batches probes per shard and hands them over bounded channels:
// when a shard falls behind, Ingest blocks (backpressure) instead of growing
// queues without bound. A time watermark derived from the maximum probe time
// is periodically broadcast to all shards so that idle shards keep expiring
// flows.
//
// Closed flows wait in a per-shard heap until no shard can still close one
// that sorts before them. A shard that has processed watermark W has
// expired every flow that ended before W − Expiry, and any flow it closes
// later ends at or after that, so the router releases every held flow that
// ends before B = (minimum over shards of the last processed watermark) −
// Expiry, merged across shards, on each watermark broadcast. FlushAll closes
// the remaining flows into the same heaps and releases them all. emit runs
// on the goroutine that calls Ingest, IngestBatch or FlushAll, under the
// router lock, never concurrently with itself; it must not call back into
// the detector.
//
// With Workers=1 the output — Scan values, emit order, and counters — is
// identical to feeding the sequential Detector directly: the single shard
// processes the entire stream in order and its heap releases in close
// order. With Workers>1 the emitted multiset is identical for time-ordered
// streams, and releasing changes when a flow is emitted, never which flows
// are, whatever the input. Whenever no probe arrives Expiry or more behind
// the latest probe time, the emitted sequence is the canonical ascending
// (End, Start, Src) order: each release is that order's next stretch.
//
// Held memory follows the stream's rate, not its length. Backpressure keeps a
// shard at most QueueDepth+1 messages behind the router, so when watermark k
// has been sent every shard has processed watermark k−QueueDepth−1 (or a
// later one). The heaps therefore hold, between the releases at broadcasts k
// and k+1, only flows that end in [W(k−QueueDepth−1), W(k+1)) − Expiry: at
// most the flows that end within QueueDepth+2 consecutive watermark
// intervals, until FlushAll closes every open flow at once. The
// detector.shard.merge_buffered gauge reports the held count.
//
// Ingest is safe for concurrent producers (probes of one source must come
// from one producer for their order to be defined). ActiveFlows and Counts
// may be called concurrently with ingest.
type ShardedDetector struct {
	cfg    shardedConfig
	shards []*shard
	emit   func(*Scan)
	wg     sync.WaitGroup
	pool   sync.Pool // batch buffers: *[]packet.Probe
	met    *shardedMetrics

	mu            sync.Mutex
	pending       []*[]packet.Probe // per-shard partial batch (pool-owned)
	runs          [][]*Scan         // per-shard stretch of the release being merged
	maxTime       int64
	lastWatermark int64
	done          bool
}

// shardedMetrics is the router-level metric set (the per-flow lifecycle
// counters live in the shards' inner Detectors, shared through one
// detMetrics). A nil *shardedMetrics disables the instrumentation.
type shardedMetrics struct {
	batches      *obs.Counter
	batchFill    *obs.Histogram // probes per dispatched batch
	watermarkLag *obs.Histogram // stream-time ns a shard clock trailed a watermark
	mergeNS      *obs.Histogram // wall time of one release: pop, merge, emit
	buffered     *obs.Gauge     // closed flows held, not yet released
}

// newShardedDetector starts cfg.Workers shard goroutines and returns the
// router. emit is called for every closed flow (see ShardedDetector for
// when and on which goroutine). Zero batching knobs get defaults; the
// embedded Config gets Config.withDefaults, before any goroutine starts.
func newShardedDetector(cfg shardedConfig, emit func(*Scan), reg *obs.Registry) *ShardedDetector {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = defaultBatchSize
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	cfg.Config = cfg.Config.withDefaults()
	if cfg.WatermarkInterval <= 0 {
		cfg.WatermarkInterval = cfg.Expiry / 4
	}
	sd := &ShardedDetector{
		cfg:     cfg,
		shards:  make([]*shard, cfg.Workers),
		emit:    emit,
		pending: make([]*[]packet.Probe, cfg.Workers),
		runs:    make([][]*Scan, cfg.Workers),
	}
	if reg != nil {
		sd.met = &shardedMetrics{
			batches:      reg.Counter("detector.shard.batches"),
			batchFill:    reg.Histogram("detector.shard.batch_fill"),
			watermarkLag: reg.Histogram("detector.shard.watermark_lag_ns"),
			mergeNS:      reg.Histogram("detector.shard.merge_ns"),
			buffered:     reg.Gauge("detector.shard.merge_buffered"),
		}
	}
	// All shards share one detMetrics: the counters are concurrency-safe
	// and the active-flow gauge moves by deltas, so the registry sees the
	// lossless roll-up across shards.
	dm := newDetMetrics(reg)
	sd.pool.New = func() any {
		b := make([]packet.Probe, 0, cfg.BatchSize)
		return &b
	}
	for i := range sd.shards {
		sh := &shard{ch: make(chan shardMsg, cfg.QueueDepth), held: scanHeap{byClose: cfg.Workers == 1}}
		sh.det = newSequentialDetector(cfg.Config, func(s *Scan) { sh.closing = append(sh.closing, s) }, dm)
		sd.shards[i] = sh
		sd.wg.Add(1)
		go sd.run(i, sh)
	}
	if reg != nil {
		for i, sh := range sd.shards {
			ch := sh.ch
			// len(chan) is safe from any goroutine; the gauge reads lazily
			// at snapshot time so idle registries cost nothing.
			reg.GaugeFunc(fmt.Sprintf("detector.shard.%02d.queue_depth", i),
				func() int64 { return int64(len(ch)) })
		}
		reg.GaugeFunc("detector.shard.queue_depth", func() int64 {
			var n int64
			for _, sh := range sd.shards {
				n += int64(len(sh.ch))
			}
			return n
		})
	}
	return sd
}

// run is the shard worker loop.
func (sd *ShardedDetector) run(idx int, sh *shard) {
	defer sd.wg.Done()
	for msg := range sh.ch {
		if sd.cfg.StallHook != nil {
			sd.cfg.StallHook(idx)
		}
		if msg.batch != nil {
			sh.det.IngestBatch(*msg.batch)
		}
		if msg.watermark > 0 {
			if sd.met != nil {
				// How far this shard's clock trailed the stream's
				// high-water mark when the watermark arrived.
				if lag := msg.watermark - sh.det.now; lag > 0 {
					sd.met.watermarkLag.Observe(lag)
				}
			}
			sh.det.AdvanceTime(msg.watermark)
		}
		if msg.batch != nil {
			// Truncate in place and return the same pointer: the slots (and
			// their payload backings) are reused by the router's next fill,
			// with no per-recycle header allocation.
			*msg.batch = (*msg.batch)[:0]
			sd.pool.Put(msg.batch)
		}
		sd.hold(sh, msg.watermark)
		sh.publish()
	}
}

// hold moves the flows the shard closed since the last call into its heap
// and then, if the message carried one, publishes the watermark it has
// processed: a router that reads the watermark finds those flows held.
func (sd *ShardedDetector) hold(sh *shard, watermark int64) {
	if len(sh.closing) > 0 {
		sh.mu.Lock()
		for _, s := range sh.closing {
			sh.held.push(s)
		}
		sh.mu.Unlock()
		if sd.met != nil {
			sd.met.buffered.Add(int64(len(sh.closing)))
		}
		clear(sh.closing)
		sh.closing = sh.closing[:0]
	}
	if watermark > 0 {
		sh.watermark.Store(watermark)
	}
}

// publish refreshes the shard's externally visible counters.
func (sh *shard) publish() {
	opened, closed, qualified := sh.det.Counts()
	sh.opened.Store(opened)
	sh.closed.Store(closed)
	sh.qualified.Store(qualified)
	sh.active.Store(int64(sh.det.ActiveFlows()))
}

// observeBatch records one dispatched batch's fill level.
func (sd *ShardedDetector) observeBatch(batch *[]packet.Probe) {
	if sd.met != nil && batch != nil {
		sd.met.batches.Inc()
		sd.met.batchFill.Observe(int64(len(*batch)))
	}
}

// shardOf routes a source address to its shard: a multiplicative hash so
// that adjacent sources (one scanned /24, say) spread across workers.
func (sd *ShardedDetector) shardOf(src uint32) int {
	h := uint64(src) * 0x9e3779b97f4a7c15
	return int((h >> 33) % uint64(len(sd.shards)))
}

// Ingest routes one probe to its source's shard. The probe is deep-copied
// into the current batch — payload bytes included — so callers may reuse p
// and its Payload backing immediately (the packet.Decoder contract). Blocks
// when the target shard's queue is full. Must not be called after FlushAll.
func (sd *ShardedDetector) Ingest(p *packet.Probe) {
	sd.mu.Lock()
	if sd.done {
		sd.mu.Unlock()
		panic("core: ShardedDetector.Ingest after FlushAll")
	}
	sd.ingestLocked(p)
	sd.mu.Unlock()
}

// IngestBatch routes a slice of probes under one lock acquisition. Same
// copying and blocking semantics as Ingest.
func (sd *ShardedDetector) IngestBatch(ps []packet.Probe) {
	if len(ps) == 0 {
		return
	}
	sd.mu.Lock()
	if sd.done {
		sd.mu.Unlock()
		panic("core: ShardedDetector.Ingest after FlushAll")
	}
	for i := range ps {
		sd.ingestLocked(&ps[i])
	}
	sd.mu.Unlock()
}

// ingestLocked appends one probe to its shard's pending batch and dispatches
// full batches and watermark broadcasts; after a broadcast it releases the
// held flows that are final. Caller holds sd.mu.
func (sd *ShardedDetector) ingestLocked(p *packet.Probe) {
	i := sd.shardOf(p.Src)
	pb := sd.pending[i]
	if pb == nil {
		pb = sd.pool.Get().(*[]packet.Probe)
		sd.pending[i] = pb
	}
	// Copy the probe into the next slot, reusing the slot's payload backing
	// from a previous cycle of this pool buffer: the caller's Payload may be
	// a decoder-owned buffer that is overwritten before the worker runs.
	b := *pb
	var keep []byte
	if n := len(b); n < cap(b) {
		b = b[:n+1]
		keep = b[n].Payload
	} else {
		b = append(b, packet.Probe{})
	}
	slot := &b[len(b)-1]
	*slot = *p
	slot.Payload = append(keep[:0], p.Payload...)
	*pb = b
	full := len(b) >= sd.cfg.BatchSize
	if p.Time > sd.maxTime {
		sd.maxTime = p.Time
	}
	if sd.maxTime-sd.lastWatermark >= sd.cfg.WatermarkInterval {
		// Broadcast the high-water mark to every shard, behind whatever is
		// already pending for it so stream order holds per shard.
		wm := sd.maxTime
		sd.lastWatermark = wm
		for j := range sd.shards {
			batch := sd.pending[j]
			sd.pending[j] = nil
			sd.observeBatch(batch)
			sd.shards[j].ch <- shardMsg{batch: batch, watermark: wm}
		}
		sd.release(sd.releaseBound())
		return
	}
	if full {
		batch := sd.pending[i]
		sd.pending[i] = nil
		sd.observeBatch(batch)
		sd.shards[i].ch <- shardMsg{batch: batch}
	}
}

// releaseBound is the End before which every flow is final: one shard's
// close order needs no bound, several shards' release up to B (see
// ShardedDetector).
func (sd *ShardedDetector) releaseBound() int64 {
	if len(sd.shards) == 1 {
		return math.MaxInt64
	}
	wm := int64(math.MaxInt64)
	for _, sh := range sd.shards {
		wm = min(wm, sh.watermark.Load())
	}
	return wm - sd.cfg.Expiry
}

// release pops every held flow that ends before bound and emits them in
// order, merging the shards' stretches. Caller holds sd.mu; the shard locks
// are not held while emit runs.
func (sd *ShardedDetector) release(bound int64) {
	n := 0
	for i, sh := range sd.shards {
		run := sd.runs[i][:0]
		sh.mu.Lock()
		for sh.held.len() > 0 && sh.held.top().End < bound {
			run = append(run, sh.held.pop())
		}
		sh.mu.Unlock()
		sd.runs[i] = run
		n += len(run)
	}
	if n == 0 {
		return
	}
	var span obs.Span
	if sd.met != nil {
		span = obs.StartSpan(sd.met.mergeNS)
		sd.met.buffered.Add(-int64(n))
	}
	next := make([]int, len(sd.runs))
	for ; n > 0; n-- {
		best := -1
		for i, run := range sd.runs {
			if next[i] < len(run) && (best < 0 || scanBefore(run[next[i]], sd.runs[best][next[best]])) {
				best = i
			}
		}
		s := sd.runs[best][next[best]]
		next[best]++
		if sd.emit != nil {
			sd.emit(s)
		}
	}
	for _, run := range sd.runs {
		clear(run)
	}
	span.End()
}

// FlushAll drains the queues, closes every shard's remaining flows into its
// heap and releases them all, in the order of every earlier release. FlushAll
// is terminal: the workers exit and further Ingest calls panic.
func (sd *ShardedDetector) FlushAll() {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	if sd.done {
		return
	}
	sd.done = true
	for i, sh := range sd.shards {
		if batch := sd.pending[i]; batch != nil {
			sd.pending[i] = nil
			sd.observeBatch(batch)
			sh.ch <- shardMsg{batch: batch}
		}
		close(sh.ch)
	}
	sd.wg.Wait()
	for _, sh := range sd.shards {
		sh.det.FlushAll()
		sd.hold(sh, 0)
		sh.publish()
	}
	sd.release(math.MaxInt64)
}

// ActiveFlows returns the open-flow count summed over shards. During ingest
// the value trails the stream by up to one in-flight batch per shard.
func (sd *ShardedDetector) ActiveFlows() int {
	n := int64(0)
	for _, sh := range sd.shards {
		n += sh.active.Load()
	}
	return int(n)
}

// Counts returns (flows opened, flows closed, campaigns qualified) summed
// over shards — the lossless roll-up of the per-shard counters.
func (sd *ShardedDetector) Counts() (opened, closed, qualified uint64) {
	for _, sh := range sd.shards {
		opened += sh.opened.Load()
		closed += sh.closed.Load()
		qualified += sh.qualified.Load()
	}
	return
}

// scanBefore is the canonical merge order: ascending (End, Start, Src).
func scanBefore(a, b *Scan) bool {
	if a.End != b.End {
		return a.End < b.End
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.Src < b.Src
}

// scanHeap is a shard's closed flows awaiting release: a binary min-heap in
// scanBefore order, or in close order when byClose (one shard, whose native
// order is the output's).
type scanHeap struct {
	items   []heldScan
	byClose bool
	seq     uint64
}

// heldScan is a held flow and its close index within the shard.
type heldScan struct {
	s   *Scan
	seq uint64
}

func (h *scanHeap) len() int   { return len(h.items) }
func (h *scanHeap) top() *Scan { return h.items[0].s }

func (h *scanHeap) less(i, j int) bool {
	if h.byClose {
		return h.items[i].seq < h.items[j].seq
	}
	return scanBefore(h.items[i].s, h.items[j].s)
}

func (h *scanHeap) push(s *Scan) {
	h.items = append(h.items, heldScan{s: s, seq: h.seq})
	h.seq++
	for i := len(h.items) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *scanHeap) pop() *Scan {
	n := len(h.items) - 1
	s := h.items[0].s
	h.items[0] = h.items[n]
	h.items[n] = heldScan{}
	h.items = h.items[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && h.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
	return s
}
