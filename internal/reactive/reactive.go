// Package reactive turns the passive telescope into a Spoki-style reactive
// telescope: it answers arriving SYNs with synthesized SYN-ACKs so that the
// second phase of two-phase scanners — the stateful handshake-and-payload
// connections that follow an irregular-ISN scout probe — becomes visible.
//
// A passive darknet only ever sees the first packet of a scan. Spoki
// (PAPERS.md) showed that a large scanner ecosystem probes in two phases:
// a stateless scout (masscan-style, ISN derived from the target) elicits a
// SYN-ACK, and seconds later the same source returns with a full TCP
// handshake from its kernel stack (regular ISN) and pushes an application
// payload. The Telescope here wraps the passive telescope's pure Check
// classifier, keeps a small table of the handshakes it has invited, and
// admits the phase-two ACK/PSH-ACK segments the passive SYN filter would
// drop — while keeping the underlying drop accounting truthful via Record.
//
// Everything is deterministic: responder ISNs are keyed off the policy seed
// and the connection 4-tuple, the rate limiter runs on the virtual packet
// clock, and state eviction is strictly FIFO. A Telescope has one owner, as
// the passive telescope and the detector do: it takes no lock, and its
// caller serializes Observe, Stats and SetMetrics. Every reactive path —
// workload.Scenario.RunReactive, analysis.CollectReactive, syntelescope —
// drives its responder from one goroutine; a sharded ingest path gives each
// shard a responder of its own.
//
// The invitation state is one fixed table (table.go) allocated by New:
// Observe allocates nothing, however long the capture and however the
// invitations churn.
package reactive

import (
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/telescope"
)

// Policy configures the responder.
type Policy struct {
	// RatePerSec caps synthesized SYN-ACKs per second (token bucket on the
	// virtual clock). Zero means unlimited — every eligible SYN is answered.
	RatePerSec float64
	// Burst is the token-bucket depth; it defaults to max(1, RatePerSec).
	Burst int
	// Ports restricts responses to an allowlist of destination ports.
	// Empty answers on every port the telescope accepts.
	Ports []uint16
	// Seed keys the responder's ISNs, making response streams reproducible.
	Seed uint64
	// StateTTL is how long (ns) an invited handshake stays acceptable.
	// Defaults to 30 virtual seconds, Spoki's reassembly horizon.
	StateTTL int64
	// MaxState caps tracked handshake tuples; the oldest invitation is
	// evicted first. Defaults to 65536. New allocates the whole table,
	// 40 to 56 bytes per tuple.
	MaxState int
}

// DefaultPolicy answers every port at 1000 SYN-ACKs/s — roughly the
// provisioning a real reactive deployment needs to keep up with a mid-size
// telescope's ingress.
func DefaultPolicy(seed uint64) Policy {
	return Policy{RatePerSec: 1000, Seed: seed}
}

// Disposition is the responder's verdict on one arriving packet.
type Disposition struct {
	// Reason is the effective ingress classification: Accepted for both
	// phase-one SYNs and phase-two segments of live handshakes, otherwise
	// the passive telescope's drop reason.
	Reason telescope.DropReason
	// Phase is 1 for an accepted SYN, 2 for an accepted post-response
	// segment, 0 for a drop.
	Phase int
	// Responded reports that a SYN-ACK was synthesized for this packet.
	Responded bool
	// ISN is the synthesized SYN-ACK's sequence number when Responded is
	// set; SynAck renders the whole segment.
	ISN uint32
}

// SynAck renders the SYN-ACK the responder synthesized for p, the probe d
// was returned for; d.Responded must be set. Its Time equals the probe's
// arrival time: callers model the return path delay.
func (d Disposition) SynAck(p *packet.Probe) packet.Probe {
	return packet.Probe{
		Time:    p.Time,
		Src:     p.Dst,
		Dst:     p.Src,
		SrcPort: p.DstPort,
		DstPort: p.SrcPort,
		Seq:     d.ISN,
		Ack:     p.Seq + 1,
		TTL:     64,
		Flags:   packet.FlagSYN | packet.FlagACK,
		Window:  65535,
	}
}

// Stats counts the responder's activity.
type Stats struct {
	// Responded counts synthesized SYN-ACKs.
	Responded uint64
	// Phase2 counts accepted post-response segments.
	Phase2 uint64
	// Payloads counts accepted phase-two segments carrying payload bytes.
	Payloads uint64
	// RateLimited counts eligible SYNs that found the bucket empty.
	RateLimited uint64
	// PolicyDenied counts accepted SYNs on ports outside the allowlist.
	PolicyDenied uint64
	// Evicted counts invitations dropped by the MaxState cap.
	Evicted uint64
	// Expired counts invitations that lapsed before phase two arrived.
	Expired uint64
}

// Telescope is a reactive wrapper around a passive telescope. It has one
// owner: calls to it must not overlap.
type Telescope struct {
	base *telescope.Telescope
	pol  Policy

	allow    [1024]uint64 // port allowlist bitmap; allowAll short-circuits
	allowAll bool
	inv      *table // outstanding invitations, FIFO
	tokens   float64
	lastRef  int64
	stats    Stats
	met      *metrics
}

type metrics struct {
	responded   *obs.Counter
	phase2      *obs.Counter
	payloads    *obs.Counter
	rateLimited *obs.Counter
	policy      *obs.Counter
	evicted     *obs.Counter
	expired     *obs.Counter
	stateSize   *obs.Gauge
}

// New wraps a passive telescope with the responder policy.
func New(base *telescope.Telescope, pol Policy) *Telescope {
	if pol.StateTTL <= 0 {
		pol.StateTTL = 30 * 1e9
	}
	if pol.MaxState <= 0 {
		pol.MaxState = 1 << 16
	}
	if pol.Burst <= 0 {
		pol.Burst = int(pol.RatePerSec)
		if pol.Burst < 1 {
			pol.Burst = 1
		}
	}
	t := &Telescope{
		base: base,
		pol:  pol,
		inv:  newTable(pol.MaxState, pol.Seed),
	}
	t.tokens = float64(pol.Burst)
	t.allowAll = len(pol.Ports) == 0
	for _, p := range pol.Ports {
		t.allow[p>>6] |= 1 << (p & 63)
	}
	return t
}

// SetMetrics attaches an observability registry: the responder reports under
// reactive.* alongside the wrapped telescope's counters. A nil registry
// detaches.
func (t *Telescope) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		t.met = nil
		return
	}
	t.met = &metrics{
		responded:   reg.Counter("reactive.synacks.sent"),
		phase2:      reg.Counter("reactive.phase2.accepted"),
		payloads:    reg.Counter("reactive.phase2.payloads"),
		rateLimited: reg.Counter("reactive.drop.ratelimit"),
		policy:      reg.Counter("reactive.drop.policy"),
		evicted:     reg.Counter("reactive.state.evicted"),
		expired:     reg.Counter("reactive.state.expired"),
		stateSize:   reg.Gauge("reactive.state.size"),
	}
}

// Base returns the wrapped passive telescope.
func (t *Telescope) Base() *telescope.Telescope { return t.base }

// Stats returns a copy of the responder counters.
func (t *Telescope) Stats() Stats {
	return t.stats
}

func (t *Telescope) portAllowed(p uint16) bool {
	return t.allowAll || t.allow[p>>6]&(1<<(p&63)) != 0
}

// respISN derives the responder's deterministic ISN for a connection.
func respISN(seed uint64, k tuple) uint32 {
	x := seed ^ uint64(k.src)<<32 ^ uint64(k.dst)
	x ^= uint64(k.sp)<<48 | uint64(k.dp)<<16
	return uint32(mix64(x))
}

// mix64 is the splitmix64 output function.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Observe classifies one arriving packet, possibly synthesizing a SYN-ACK,
// and keeps both the responder's and the wrapped telescope's accounting.
func (t *Telescope) Observe(p *packet.Probe) Disposition {
	r := t.base.Check(p)
	switch r {
	case telescope.Accepted:
		// Phase one: a SYN the passive telescope would record anyway.
		d := Disposition{Reason: telescope.Accepted, Phase: 1}
		t.respond(p, &d)
		t.base.Record(telescope.Accepted)
		return d
	case telescope.DropNotSYN:
		// The passive filter drops it; accept it as phase two if it
		// belongs to a handshake we invited.
		if p.IsSYNACK() {
			break
		}
		k := tuple{p.Src, p.Dst, p.SrcPort, p.DstPort}
		pos, at := t.inv.find(k, t.inv.hash(k))
		if pos < 0 {
			break
		}
		if p.Time <= t.inv.slots[pos].expiry {
			t.stats.Phase2++
			if p.HasPayload() {
				t.stats.Payloads++
			}
			if t.met != nil {
				t.met.phase2.Inc()
				if p.HasPayload() {
					t.met.payloads.Inc()
				}
			}
			t.base.Record(telescope.Accepted)
			return Disposition{Reason: telescope.Accepted, Phase: 2}
		}
		t.inv.lapse(pos, at)
		t.stats.Expired++
		if t.met != nil {
			t.met.expired.Inc()
			t.met.stateSize.Set(int64(t.inv.live))
		}
	}
	t.base.Record(r)
	return Disposition{Reason: r}
}

// respond decides whether to answer an accepted SYN and, if so, synthesizes
// the SYN-ACK and registers the invitation.
func (t *Telescope) respond(p *packet.Probe, d *Disposition) {
	if !t.portAllowed(p.DstPort) {
		t.stats.PolicyDenied++
		if t.met != nil {
			t.met.policy.Inc()
		}
		return
	}
	if t.pol.RatePerSec > 0 {
		if p.Time > t.lastRef {
			t.tokens += float64(p.Time-t.lastRef) * t.pol.RatePerSec / 1e9
			if max := float64(t.pol.Burst); t.tokens > max {
				t.tokens = max
			}
			t.lastRef = p.Time
		}
		if t.tokens < 1 {
			t.stats.RateLimited++
			if t.met != nil {
				t.met.rateLimited.Inc()
			}
			return
		}
		t.tokens--
	}
	k := tuple{p.Src, p.Dst, p.SrcPort, p.DstPort}
	expiry := p.Time + t.pol.StateTTL
	if evicted, was := t.inv.invite(k, expiry); evicted {
		// The table was full and its oldest invitation made room; one that
		// had lapsed unclaimed by then counts as expired, not evicted.
		if was < p.Time {
			t.stats.Expired++
			if t.met != nil {
				t.met.expired.Inc()
			}
		} else {
			t.stats.Evicted++
			if t.met != nil {
				t.met.evicted.Inc()
			}
		}
	}
	t.stats.Responded++
	if t.met != nil {
		t.met.responded.Inc()
		t.met.stateSize.Set(int64(t.inv.live))
	}
	d.Responded = true
	d.ISN = respISN(t.pol.Seed, k)
}
