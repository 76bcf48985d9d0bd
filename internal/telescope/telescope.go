// Package telescope models the measurement infrastructure of the paper: a
// network telescope assembled from partially populated address blocks whose
// unused addresses attract only backscatter and scanning traffic (§3.2).
//
// A Telescope owns three responsibilities:
//
//  1. membership — which addresses are monitored (the used addresses of the
//     partially populated blocks are invisible to the capture);
//  2. filtering — keep TCP packets with only the SYN flag set (the standard
//     practice for separating scans from backscatter) and enforce the
//     ingress policy that drops ports 23 and 445 after 2016;
//  3. accounting — per-reason drop counters and outage windows, so analyses
//     can report on exactly what the capture saw.
package telescope

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/rng"
)

// PartialBlock is one address block routed to the telescope, of which only
// the unpopulated fraction is monitored.
type PartialBlock struct {
	// Prefix is the routed block.
	Prefix inetmodel.Prefix
	// MonitoredFraction in (0, 1] is the share of the block's addresses
	// that are unused and therefore monitored.
	MonitoredFraction float64
}

// Config describes a telescope deployment.
type Config struct {
	// Blocks are the routed blocks with their monitored fractions.
	Blocks []PartialBlock
	// Seed determines which specific addresses are monitored.
	Seed uint64
	// BlockedPorts are dropped at the network ingress (the operational
	// policy of §3.2: 23/TCP and 445/TCP since the advent of Mirai).
	BlockedPorts []uint16
	// PolicyFrom is the time (ns) the BlockedPorts policy took effect;
	// packets before it pass the port filter. Zero blocks unconditionally.
	PolicyFrom int64
}

// PolicyEpoch is when the §3.2 ingress policy was deployed: the operators
// started dropping 23/TCP and 445/TCP on 2017-01-01, after Mirai and
// WannaCry made those ports dominate the ingress volume.
const PolicyEpoch int64 = 1483228800000000000

// PaperConfig returns the deployment described in §3.2: three partially
// populated /16 blocks monitoring 71,536 addresses in total, with ports 23
// and 445 dropped at the ingress from PolicyEpoch on.
func PaperConfig(seed uint64) Config {
	return Config{
		Blocks: []PartialBlock{
			{Prefix: inetmodel.MustPrefix("203.10.0.0/16"), MonitoredFraction: 0.42},
			{Prefix: inetmodel.MustPrefix("198.51.0.0/16"), MonitoredFraction: 0.31},
			{Prefix: inetmodel.MustPrefix("131.180.0.0/16"), MonitoredFraction: 0.36155},
		},
		Seed:         seed,
		BlockedPorts: []uint16{23, 445},
		PolicyFrom:   PolicyEpoch,
	}
}

// ScaledConfig returns a telescope of roughly the given size spread over the
// same three blocks, for fast simulations. The per-block fractions keep the
// paper's relative proportions; a block cannot monitor more than all of its
// addresses, so fractions are clamped to 1 when approxSize exceeds what the
// paper's proportions can deliver (the result is then smaller than asked,
// bounded by the three blocks' total address count).
func ScaledConfig(seed uint64, approxSize int) Config {
	c := PaperConfig(seed)
	paperTotal := 0.0
	for _, b := range c.Blocks {
		paperTotal += b.MonitoredFraction * float64(b.Prefix.Size())
	}
	scale := float64(approxSize) / paperTotal
	for i := range c.Blocks {
		f := c.Blocks[i].MonitoredFraction * scale
		if f > 1 {
			f = 1
		}
		c.Blocks[i].MonitoredFraction = f
	}
	return c
}

// DropReason classifies why an arriving packet was not recorded.
type DropReason uint8

// Drop reasons.
const (
	Accepted DropReason = iota
	DropNotMonitored
	DropNotSYN
	DropPolicy
	DropOutage
	DropNotTCP
	DropBadTime
)

// String names the reason.
func (d DropReason) String() string {
	switch d {
	case Accepted:
		return "accepted"
	case DropNotMonitored:
		return "not-monitored"
	case DropNotSYN:
		return "not-syn"
	case DropPolicy:
		return "policy"
	case DropOutage:
		return "outage"
	case DropNotTCP:
		return "not-tcp"
	case DropBadTime:
		return "bad-time"
	default:
		return "invalid"
	}
}

// Stats counts the fate of arriving packets.
type Stats struct {
	Accepted     uint64
	NotMonitored uint64
	NotSYN       uint64
	NotTCP       uint64
	Policy       uint64
	Outage       uint64
	BadTime      uint64
}

// Total returns the number of packets that arrived.
func (s Stats) Total() uint64 {
	return s.Accepted + s.NotMonitored + s.NotSYN + s.NotTCP + s.Policy + s.Outage + s.BadTime
}

type outage struct{ from, to int64 }

// block is the membership of one routed block: bit (ip - base) of monitored
// is set when ip is monitored. A /16 costs 8 KB.
type block struct {
	base      uint32
	size      uint64 // addresses in the block; 2^32 for a /0, hence not uint32
	monitored []uint64
}

// Telescope is a configured deployment. It is safe for concurrent reads
// (Contains/At/Size) but Observe mutates counters and must be serialized.
type Telescope struct {
	blocks     []block  // ascending by base, disjoint: what Contains tests
	addrs      []uint32 // the same set as a sorted list: what At and Size index
	blocked    [1024]uint64
	policyFrom int64
	outages    []outage
	stats      Stats
	met        *telMetrics // nil when metrics are disabled
}

// telMetrics mirrors Stats into an observability registry so the ingress
// drop mix is scrapeable mid-capture (the Stats struct itself is only
// safely readable between Observe calls).
type telMetrics struct {
	accepted     *obs.Counter
	notMonitored *obs.Counter
	notSYN       *obs.Counter
	notTCP       *obs.Counter
	policy       *obs.Counter
	outage       *obs.Counter
	badTime      *obs.Counter
}

// SetMetrics attaches an observability registry: Observe reports the
// accept/drop mix under telescope.packets.accepted and telescope.drop.*
// alongside the Stats counters. A nil registry detaches.
func (t *Telescope) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		t.met = nil
		return
	}
	t.met = &telMetrics{
		accepted:     reg.Counter("telescope.packets.accepted"),
		notMonitored: reg.Counter("telescope.drop.not_monitored"),
		notSYN:       reg.Counter("telescope.drop.not_syn"),
		notTCP:       reg.Counter("telescope.drop.not_tcp"),
		policy:       reg.Counter("telescope.drop.policy"),
		outage:       reg.Counter("telescope.drop.outage"),
		badTime:      reg.Counter("telescope.drop.bad_time"),
	}
}

// New builds the telescope for cfg, materializing the monitored address set
// deterministically from the seed.
func New(cfg Config) (*Telescope, error) {
	if len(cfg.Blocks) == 0 {
		return nil, errors.New("telescope: no blocks configured")
	}
	t := &Telescope{blocks: make([]block, 0, len(cfg.Blocks))}
	r := rng.New(cfg.Seed).Derive("telescope/membership")
	total := uint64(0)
	for i, b := range cfg.Blocks {
		if b.MonitoredFraction <= 0 || b.MonitoredFraction > 1 {
			return nil, fmt.Errorf("telescope: block %v fraction %v out of (0,1]", b.Prefix, b.MonitoredFraction)
		}
		// The block that contains an address decides its membership, so no
		// address may sit in two (and At/Size must not list one twice).
		for _, prev := range cfg.Blocks[:i] {
			if b.Prefix.Overlaps(prev.Prefix) {
				return nil, fmt.Errorf("telescope: blocks %v and %v overlap", prev.Prefix, b.Prefix)
			}
		}
		size := b.Prefix.Size()
		// Choose round(fraction*size) distinct offsets via a keyed
		// permutation: deterministic, and exactly the requested count.
		n := uint64(b.MonitoredFraction*float64(size) + 0.5)
		if n == 0 {
			n = 1
		}
		perm := rng.NewFeistelPerm(size, r.Derive(b.Prefix.String()))
		monitored := make([]uint64, (size+63)/64)
		for j := uint64(0); j < n; j++ {
			off := perm.Apply(j)
			monitored[off>>6] |= 1 << (off & 63)
		}
		t.blocks = append(t.blocks, block{base: b.Prefix.Base, size: size, monitored: monitored})
		total += n
	}
	// Blocks in address order, bits in offset order: the list comes out sorted.
	sort.Slice(t.blocks, func(i, j int) bool { return t.blocks[i].base < t.blocks[j].base })
	t.addrs = make([]uint32, 0, total)
	for _, b := range t.blocks {
		for w, word := range b.monitored {
			for ; word != 0; word &= word - 1 {
				t.addrs = append(t.addrs, b.base+uint32(w<<6+bits.TrailingZeros64(word)))
			}
		}
	}
	for _, p := range cfg.BlockedPorts {
		t.blockPort(p)
	}
	t.policyFrom = cfg.PolicyFrom
	return t, nil
}

func (t *Telescope) blockPort(p uint16) { t.blocked[p>>6] |= 1 << (p & 63) }

// BlockPort adds a port to the ingress drop policy.
func (t *Telescope) BlockPort(p uint16) { t.blockPort(p) }

// PortBlocked reports whether the ingress policy drops the port.
func (t *Telescope) PortBlocked(p uint16) bool {
	return t.blocked[p>>6]&(1<<(p&63)) != 0
}

// AddOutage registers a [from, to) window during which the telescope
// recorded nothing (server failures, routing withdrawals — §3.2).
func (t *Telescope) AddOutage(from, to int64) {
	if to > from {
		t.outages = append(t.outages, outage{from, to})
	}
}

// Size returns the number of monitored addresses.
func (t *Telescope) Size() int { return len(t.addrs) }

// At returns the i-th monitored address in ascending order.
func (t *Telescope) At(i int) uint32 { return t.addrs[i] }

// Contains reports whether ip is monitored: a range check per block, then one
// bit test in the block that holds ip.
func (t *Telescope) Contains(ip uint32) bool {
	for i := range t.blocks {
		b := &t.blocks[i]
		// ip below base wraps to an offset no block is large enough to hold.
		if off := uint64(ip - b.base); off < b.size {
			return b.monitored[off>>6]&(1<<(off&63)) != 0
		}
	}
	return false
}

// Observe applies membership, SYN filtering, ingress policy and outage
// windows to one arriving packet, updates the counters, and returns whether
// the packet enters the dataset. It is Check followed by Record.
func (t *Telescope) Observe(p *packet.Probe) DropReason {
	r := t.Check(p)
	t.Record(r)
	return r
}

// Check classifies one arriving packet without touching any counter: pure
// membership, SYN filtering, ingress policy and outage-window evaluation.
// The reactive responder uses it to form its own verdict (a non-SYN on a
// live handshake is accepted there) before accounting via Record.
func (t *Telescope) Check(p *packet.Probe) DropReason {
	// A negative timestamp cannot come from the capture infrastructure: it is
	// the signature of a record damaged upstream — a damaged flowlog delta that
	// still frames correctly can walk the decoded clock below zero. Dropping
	// it here keeps garbage out of the time-bucketed analyses instead of
	// crediting traffic to before the epoch.
	if p.Time < 0 {
		return DropBadTime
	}
	for _, o := range t.outages {
		if p.Time >= o.from && p.Time < o.to {
			return DropOutage
		}
	}
	if t.PortBlocked(p.DstPort) && p.Time >= t.policyFrom {
		return DropPolicy
	}
	if !t.Contains(p.Dst) {
		return DropNotMonitored
	}
	if !p.IsTCP() {
		return DropNotTCP
	}
	if !p.IsSYN() {
		return DropNotSYN
	}
	return Accepted
}

// Record accounts one packet's fate in the stats and metrics. Split from
// Check so a wrapping responder can re-classify a packet (e.g. accept a
// phase-two ACK the passive filter would drop) and still keep the ingress
// counters truthful.
func (t *Telescope) Record(r DropReason) {
	switch r {
	case Accepted:
		t.stats.Accepted++
		if t.met != nil {
			t.met.accepted.Inc()
		}
	case DropNotMonitored:
		t.stats.NotMonitored++
		if t.met != nil {
			t.met.notMonitored.Inc()
		}
	case DropNotSYN:
		t.stats.NotSYN++
		if t.met != nil {
			t.met.notSYN.Inc()
		}
	case DropPolicy:
		t.stats.Policy++
		if t.met != nil {
			t.met.policy.Inc()
		}
	case DropOutage:
		t.stats.Outage++
		if t.met != nil {
			t.met.outage.Inc()
		}
	case DropNotTCP:
		t.stats.NotTCP++
		if t.met != nil {
			t.met.notTCP.Inc()
		}
	case DropBadTime:
		t.stats.BadTime++
		if t.met != nil {
			t.met.badTime.Inc()
		}
	}
}

// Stats returns a copy of the counters.
func (t *Telescope) Stats() Stats { return t.stats }
