// Package core implements the paper's primary methodological contribution:
// grouping the individual SYN probes arriving at a telescope into scan
// campaigns (§3.4) and attributing each campaign to a scanning tool (§3.3,
// via internal/fingerprint).
//
// A scan campaign is a sequence of probes from one source address that hits
// at least MinDistinctDsts distinct telescope addresses at an extrapolated
// Internet-wide rate of at least MinRatePPS packets per second; a flow that
// stays silent for the Expiry window is closed. The detector is a streaming,
// single-pass structure: per-source state is found through an open-addressed
// source table hashed with a per-detector random multiplier (srctable.go) and
// threaded onto an intrusive LRU list ordered by last activity, so expiry is
// O(1) amortized per packet regardless of how many sources are live.
//
// A flow's two sets are purpose-built (sets.go): destinations and their phase
// bits in an open-addressed table that empties in O(1), ports inline in the
// flow until a ninth distinct port spills them to a bitmap. Closed flows are
// recycled; destination tables past eight slots and spilled bitmaps return to
// detector-level pools, all under the byte bound stated beside maxFreeFlows.
package core

import (
	"math/rand/v2"
	"time"

	"github.com/synscan/synscan/internal/fingerprint"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/tools"
)

// Default thresholds from §3.4.
const (
	// DefaultMinDistinctDsts is the minimum number of distinct telescope
	// addresses a campaign must hit.
	DefaultMinDistinctDsts = 100
	// DefaultMinRatePPS is the minimum extrapolated Internet-wide probe
	// rate in packets per second.
	DefaultMinRatePPS = 100.0
	// DefaultExpiry closes flows after one hour of silence.
	DefaultExpiry = int64(time.Hour)
	// probeWireBits is the on-the-wire cost of one minimal SYN probe
	// (54-byte frame + 20 bytes Ethernet preamble/IFG/FCS overhead), used
	// to convert probe rates into link speeds as the paper reports them.
	probeWireBits = (packet.FrameLen + 20) * 8
)

// Config parameterizes the detector. The zero value is completed with the
// paper's defaults by NewDetector; TelescopeSize is mandatory.
type Config struct {
	// TelescopeSize is the number of monitored addresses, used to
	// extrapolate telescope-local observations to Internet-wide rates.
	TelescopeSize int
	// MinDistinctDsts is the campaign qualification threshold on distinct
	// destinations (default 100).
	MinDistinctDsts int
	// MinRatePPS is the qualification threshold on the extrapolated
	// Internet-wide rate (default 100 pps).
	MinRatePPS float64
	// Expiry is the idle time after which a flow closes, in nanoseconds
	// (default 1 hour).
	Expiry int64
	// MinLinkedDsts is the number of destinations that must see both a scout
	// probe and a returning handshake segment from the same source before the
	// flow is flagged TwoPhase (default 1). Only reactive-telescope pipelines
	// deliver handshake segments, so passive runs never set the flag.
	MinLinkedDsts int
}

// withDefaults returns cfg with the paper's §3.4 thresholds in every zero
// field. TelescopeSize has no default: a detector without one is a bug in
// the caller, so it panics. Every detector constructor goes through here.
func (cfg Config) withDefaults() Config {
	if cfg.TelescopeSize <= 0 {
		panic("core: Config.TelescopeSize must be positive")
	}
	if cfg.MinDistinctDsts == 0 {
		cfg.MinDistinctDsts = DefaultMinDistinctDsts
	}
	if cfg.MinRatePPS == 0 {
		cfg.MinRatePPS = DefaultMinRatePPS
	}
	if cfg.Expiry == 0 {
		cfg.Expiry = DefaultExpiry
	}
	return cfg
}

// ReferenceTelescopeSize is the monitored-address count the paper's §3.4
// thresholds were calibrated against (the /18 + /22 + /24 telescope).
const ReferenceTelescopeSize = 71536

// ScaledConfig returns a Config with the paper's thresholds rescaled to a
// telescope of the given size: a smaller telescope sees proportionally fewer
// hits from the same Internet-wide campaign, spaced further apart, so
// MinDistinctDsts shrinks linearly (floor 6 — below that, qualification is
// noise) and the idle expiry stretches inversely (capped at 12 hours so state
// still ages out). At ReferenceTelescopeSize and above this is the paper's
// default Config. Shared by the simulator (workload.NewScenario), the replay
// tools (synalyze, syningest) and the facade's NewAnalyzer, so all derive
// identical campaigns from the same capture.
func ScaledConfig(telescopeSize int) Config {
	cfg := Config{TelescopeSize: telescopeSize}
	if scaled := DefaultMinDistinctDsts * telescopeSize / ReferenceTelescopeSize; scaled >= 6 {
		cfg.MinDistinctDsts = scaled
	} else {
		cfg.MinDistinctDsts = 6
	}
	if telescopeSize < ReferenceTelescopeSize && telescopeSize > 0 {
		expiry := int64(float64(DefaultExpiry) * ReferenceTelescopeSize / float64(telescopeSize))
		if max := int64(12 * time.Hour); expiry > max {
			expiry = max
		}
		cfg.Expiry = expiry
	}
	return cfg
}

// Scan is one closed flow: a campaign if Qualified, otherwise background
// noise that did not meet the §3.4 thresholds (analyses still need those
// sources for the "top ports by sources" style tallies).
type Scan struct {
	// Src is the scanning source address.
	Src uint32
	// Start and End are the first and last probe times (ns).
	Start, End int64
	// Packets is the number of probes observed.
	Packets uint64
	// DistinctDsts is the number of distinct telescope addresses hit.
	DistinctDsts int
	// Ports are the distinct destination ports probed, ascending.
	Ports []uint16
	// Tool is the fingerprint classification.
	Tool tools.Tool
	// Qualified reports whether the flow met the campaign thresholds.
	Qualified bool
	// RatePPS is the extrapolated Internet-wide probe rate.
	RatePPS float64
	// Coverage is the estimated fraction of the IPv4 space targeted.
	Coverage float64

	// TwoPhase reports that at least MinLinkedDsts destinations saw both a
	// scout probe and a returning handshake segment — the Spoki two-phase
	// scanner signature, observable only behind a reactive telescope.
	TwoPhase bool
	// LinkedDsts is the number of destinations with a scout→handshake link.
	LinkedDsts int
	// ScoutPackets and HandshakePackets split Packets into phase-one SYNs
	// and phase-two (ACK/PSH-ACK) segments.
	ScoutPackets, HandshakePackets uint64
	// PayloadBytes sums the phase-two payload lengths.
	PayloadBytes uint64
	// Payload is the first payload's leading bytes (at most 8), nil when the
	// campaign never pushed data.
	Payload []byte
	// ISN is the campaign's sequence-number regime.
	ISN fingerprint.ISNClass
}

// Duration returns the scan's observed duration in seconds (at least zero).
func (s *Scan) Duration() float64 {
	return float64(s.End-s.Start) / float64(time.Second)
}

// SpeedMbps converts the extrapolated rate into megabits per second the way
// the paper reports scanning speeds (§5.2, §6.3).
func (s *Scan) SpeedMbps() float64 {
	return s.RatePPS * probeWireBits / 1e6
}

// Per-destination phase bits: which phases a destination has seen from the
// flow's source. A destination holding both bits is a scout→handshake link.
const (
	dstScout     = 1 << 0
	dstHandshake = 1 << 1
	dstLinked    = dstScout | dstHandshake
)

// flow is live per-source state, threaded on the LRU list.
type flow struct {
	src        uint32
	start, end int64
	packets    uint64
	dsts       dstSet // phase bits per destination
	linked     int    // destinations holding both phase bits
	ports      portSet
	votes      fingerprint.Votes

	prev, next *flow
}

// absorb folds one probe into the flow: phase routing, per-destination link
// bits, port set and fingerprint votes. Shared by every detector variant so
// their per-packet semantics cannot drift apart. A destination set that grows
// takes its table from tables, a port set that spills its bitmap from
// bitmaps (nil: allocate one).
func (f *flow) absorb(p *packet.Probe, bitmaps *bitmapPool, tables *dstPool) {
	f.packets++
	var bit uint8 = dstScout
	if p.IsTCP() && p.Flags&packet.FlagSYN == 0 {
		// A phase-two segment: only a reactive telescope admits these.
		bit = dstHandshake
		f.votes.AddPhase2(p)
	} else {
		f.votes.Add(p)
	}
	if old, now := f.dsts.or(p.Dst, bit, tables); now != old && now == dstLinked {
		f.linked++
	}
	f.ports.add(p.DstPort, bitmaps)
}

// finalize turns a closed flow into a Scan under cfg's thresholds. Shared by
// the sequential and naive detectors so their results stay identical.
func finalize(cfg *Config, f *flow) *Scan {
	s := &Scan{
		Src:              f.src,
		Start:            f.start,
		End:              f.end,
		Packets:          f.packets,
		DistinctDsts:     f.dsts.n,
		Ports:            f.ports.sorted(),
		Tool:             f.votes.Classify(),
		LinkedDsts:       f.linked,
		HandshakePackets: uint64(f.votes.Handshakes),
		PayloadBytes:     f.votes.PayloadBytes,
		ISN:              f.votes.ISN(),
	}
	s.ScoutPackets = s.Packets - s.HandshakePackets
	minLinked := cfg.MinLinkedDsts
	if minLinked <= 0 {
		minLinked = 1
	}
	s.TwoPhase = f.linked >= minLinked
	if n := int(f.votes.PayloadPrefixLen); n > 0 {
		s.Payload = append([]byte(nil), f.votes.PayloadPrefix[:n]...)
	}

	// Rate estimation: observed packets over observed duration, floored at
	// one second so single-burst flows do not produce infinite rates, then
	// extrapolated from the telescope to the full IPv4 space.
	durSec := s.Duration()
	if durSec < 1 {
		durSec = 1
	}
	observedPPS := float64(s.Packets) / durSec
	s.RatePPS = inetmodel.ExtrapolateRate(observedPPS, cfg.TelescopeSize)
	s.Coverage = inetmodel.ExtrapolateCoverage(s.DistinctDsts, cfg.TelescopeSize)
	s.Qualified = s.DistinctDsts >= cfg.MinDistinctDsts && s.RatePPS >= cfg.MinRatePPS
	return s
}

// Ingester is the streaming surface shared by the detector variants:
// the sequential Detector, the sweep-based NaiveDetector, and the parallel
// ShardedDetector, so pipelines can switch implementations by configuration
// (NewDetector with WithWorkers selects among them).
type Ingester interface {
	// Ingest processes one accepted probe.
	Ingest(*packet.Probe)
	// IngestBatch is a loop over Ingest (the sharded router runs it under
	// one lock acquisition). The slice and its probes belong to the caller
	// again when IngestBatch returns; nothing in the detector retains a
	// reference into it.
	IngestBatch([]packet.Probe)
	// FlushAll closes all remaining flows at end of capture.
	FlushAll()
	// ActiveFlows returns the number of currently open flows.
	ActiveFlows() int
	// Counts returns (flows opened, flows closed, campaigns qualified).
	Counts() (opened, closed, qualified uint64)
}

var (
	_ Ingester = (*Detector)(nil)
	_ Ingester = (*NaiveDetector)(nil)
	_ Ingester = (*ShardedDetector)(nil)
)

// Detector is the streaming campaign detector. Not safe for concurrent use.
type Detector struct {
	cfg   Config
	flows srcTable // the open flows by source
	// LRU list: head is the least recently active flow.
	head, tail *flow
	emit       func(*Scan)
	now        int64
	met        *detMetrics // nil when metrics are disabled

	// Free list of closed flows for reuse (threaded on next). Recycling
	// keeps the open/close churn of a long-running telescope from
	// allocating: a reused flow keeps an eight-slot destination table,
	// emptied by a generation bump, and a flow that needs more takes a
	// pooled table, so re-opening a source costs no allocations and no
	// clearing. What the list and the pools may hold is bounded below.
	free  *flow
	nfree int
	// Idle destination tables larger than eight slots, for the next flow
	// whose set grows, and idle port bitmaps, for the next that spills.
	tables  dstPool
	bitmaps bitmapPool

	opened, closed, qualified uint64
}

// Flow recycling bounds. At most maxFreeFlows closed flows wait for reuse,
// each holding its struct (280 B) and at most a minDstSlots destination
// table (64 B). A larger table returns to the detector's table pool, which
// keeps at most maxPooledTables of each power-of-two size up to
// maxRecycledSlots (64 KiB; a table that grew past it goes back to the
// collector), and a spilled port bitmap to the bitmap pool of at most
// maxPooledBitmaps, 8 KiB each. A detector's idle state is therefore at most
// maxFreeFlows × (280 B + 64 B) + 8 × (8 + 16 + … + 8192) × 8 B + 16 × 8 KiB
// ≈ 6.5 MiB, whatever traffic came before. TestRecycleBounds holds the free
// list and the pools to it. The source table is not idle state: it is at
// most half full, 16 B a slot, and does not shrink, so it holds at most
// 64 B per flow that was open at the peak.
const (
	maxFreeFlows     = 1 << 14
	maxRecycledSlots = 1 << 13
	maxPooledTables  = 8
	maxPooledBitmaps = 16
)

// newFlow returns a flow for src starting at start, reusing a recycled flow
// when one is available. Every field is reset here; the free list is the
// only place a flow outlives its close.
func (d *Detector) newFlow(src uint32, start int64) *flow {
	f := d.free
	if f == nil {
		return &flow{src: src, start: start}
	}
	d.free = f.next
	d.nfree--
	dsts := f.dsts
	dsts.reset()
	*f = flow{src: src, start: start, dsts: dsts}
	return f
}

// recycle parks a closed flow on the free list for reuse, within the bounds
// above. finalize copied everything the emitted Scan keeps, so nothing
// aliases the flow here.
func (d *Detector) recycle(f *flow) {
	f.ports.reset(&d.bitmaps)
	f.dsts.release(&d.tables)
	if d.nfree >= maxFreeFlows {
		return
	}
	f.prev = nil
	f.next = d.free
	d.free = f
	d.nfree++
}

// newSequentialDetector is the concrete sequential constructor behind
// NewDetector; met may be nil (metrics disabled).
func newSequentialDetector(cfg Config, emit func(*Scan), met *detMetrics) *Detector {
	return &Detector{
		cfg:   cfg.withDefaults(),
		flows: newSrcTable(srcMultiplier(rand.Uint64)),
		emit:  emit,
		met:   met,
	}
}

// Ingest processes one accepted telescope probe. Probes must arrive in
// non-decreasing time order (the capture layer guarantees this); small
// reordering is tolerated by expiring against the maximum time seen.
func (d *Detector) Ingest(p *packet.Probe) {
	if p.Time > d.now {
		d.now = p.Time
	}
	d.expireBefore(d.now - d.cfg.Expiry)

	slot := d.flows.find(p.Src)
	f := slot.f
	if f == nil {
		reused := d.free != nil
		f = d.newFlow(p.Src, p.Time)
		d.flows.insert(slot, f)
		d.opened++
		if d.met != nil {
			d.met.opened.Inc()
			d.met.active.Add(1)
			if reused {
				d.met.reused.Inc()
			}
		}
	} else {
		d.lruUnlink(f)
	}
	// Clamp: a slightly reordered probe must not move the flow's end
	// backwards, or Duration()/RatePPS would corrupt. The clamp does not
	// order the LRU list — a late probe's flow can still end before the
	// tail does — so lruAppend places the flow by its end.
	if p.Time > f.end {
		f.end = p.Time
	} else if d.met != nil && p.Time < f.end {
		d.met.endClamp.Inc()
	}
	if d.met != nil {
		d.met.packets.Inc()
	}
	f.absorb(p, &d.bitmaps, &d.tables)
	d.lruAppend(f)
}

// IngestBatch is a loop over Ingest. There is no batch fast path: a passive
// telescope sees a source's probes interleaved with every other source's
// (mean same-source run 1.0006 probes on a simulated 2022 capture), and where
// runs do occur, behind the responder, absorbing them as runs measured no
// faster — DESIGN.md "Hot path" has both measurements.
// The slice and its probes belong to the caller again when IngestBatch
// returns; nothing in the detector retains a reference into it (the pair
// cache drops payload headers, see Votes.setPrev).
func (d *Detector) IngestBatch(ps []packet.Probe) {
	for i := range ps {
		d.Ingest(&ps[i])
	}
}

// AdvanceTime advances the detector's clock to t (if later than any time
// seen) without ingesting a probe, closing flows that have been idle past
// the expiry window. The sharded detector broadcasts time watermarks through
// this entry point so that a shard whose own sources went quiet still
// retires its flows while the rest of the stream progresses.
func (d *Detector) AdvanceTime(t int64) {
	if t > d.now {
		d.now = t
	}
	d.expireBefore(d.now - d.cfg.Expiry)
}

// expireBefore closes every flow whose last activity predates cutoff.
func (d *Detector) expireBefore(cutoff int64) {
	for d.head != nil && d.head.end < cutoff {
		f := d.head
		d.lruUnlink(f)
		d.flows.remove(f)
		if d.met != nil {
			d.met.expired.Inc()
		}
		d.close(f)
	}
}

// FlushAll closes all remaining flows (end of capture).
func (d *Detector) FlushAll() {
	for d.head != nil {
		f := d.head
		d.lruUnlink(f)
		d.flows.remove(f)
		d.close(f)
	}
}

// close finalizes a flow into a Scan and emits it.
func (d *Detector) close(f *flow) {
	d.closed++
	if d.met != nil {
		d.met.closed.Inc()
		d.met.active.Add(-1)
		if f.ports.bits != nil {
			d.met.spilled.Inc()
		}
	}
	s := finalize(&d.cfg, f)
	if s.Qualified {
		d.qualified++
		if d.met != nil {
			d.met.qualified.Inc()
		}
	}
	if d.emit != nil {
		d.emit(s)
	}
	d.recycle(f)
}

// ActiveFlows returns the number of currently open flows.
func (d *Detector) ActiveFlows() int { return d.flows.n }

// Counts returns (flows opened, flows closed, campaigns qualified).
func (d *Detector) Counts() (opened, closed, qualified uint64) {
	return d.opened, d.closed, d.qualified
}

// lruAppend links f where end stays non-decreasing from head to tail, the
// order expireBefore's early exit depends on. On time-ordered input f holds
// the newest end and lands at the tail in zero steps; a flow opened or
// touched by a late probe walks back past the flows active since its end, so
// it cannot hide behind younger flows when the clock passes it. A flow that
// ends before the head does — a new flow whose first probe is older than
// the expiry cutoff, since every open flow ends at or after it — would walk
// the whole list to the head, so it goes there in one step.
func (d *Detector) lruAppend(f *flow) {
	at := d.tail
	if at != nil && at.end > f.end && f.end < d.head.end {
		at = nil
	}
	for at != nil && at.end > f.end {
		at = at.prev
	}
	f.prev = at
	if at != nil {
		f.next, at.next = at.next, f
	} else {
		f.next, d.head = d.head, f
	}
	if f.next != nil {
		f.next.prev = f
	} else {
		d.tail = f
	}
}

func (d *Detector) lruUnlink(f *flow) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		d.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		d.tail = f.prev
	}
	f.prev, f.next = nil, nil
}
