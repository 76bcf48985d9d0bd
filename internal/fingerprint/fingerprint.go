// Package fingerprint implements the scanning-tool identification of §3.3.
//
// Two kinds of tests exist. Per-packet tests check a relation between header
// fields of a single probe (ZMap's constant IP identification, Masscan's
// IPID = dstIP ^ dstPort ^ seq relation, Mirai's seq = dstIP). Pairwise
// tests need two probes from the same source (NMap's session-secret
// structure, Unicornscan's source/destination encoding) because the per-
// session secret cancels out under XOR.
//
// Single-packet relations have false-positive rates around 2^-16 against
// random traffic, so classification is done per campaign by majority voting
// over all of its packets (Votes), never from one packet.
package fingerprint

import (
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/tools"
)

// IsZMap reports the ZMap per-packet fingerprint: IP identification 54321.
func IsZMap(p *packet.Probe) bool {
	return p.IPID == tools.ZMapIPID
}

// IsMasscan reports the Masscan per-packet fingerprint:
// IPid = destIP ^ destPort ^ SeqNum (folded to 16 bits).
func IsMasscan(p *packet.Probe) bool {
	return p.IPID == uint16(p.Dst^uint32(p.DstPort)^p.Seq)
}

// IsMirai reports the Mirai per-packet fingerprint: the TCP sequence number
// equals the destination address.
func IsMirai(p *packet.Probe) bool {
	return p.Seq == p.Dst
}

// PairNMap reports the NMap pairwise fingerprint for two probes of one
// source: (Seq1 ^ Seq2) & 0xFFFF == ((Seq1 ^ Seq2) >> 16) & 0xFFFF, which
// holds because NMap's sequence numbers are (nfo‖nfo) XOR a reused session
// secret.
func PairNMap(a, b *packet.Probe) bool {
	x := a.Seq ^ b.Seq
	return x&0xffff == x>>16&0xffff
}

// PairUnicorn reports the Unicornscan pairwise fingerprint:
// Seq1^Seq2 = dstIP1^dstIP2 ^ srcPort1^srcPort2 ^ ((dstPort1^dstPort2)<<16).
func PairUnicorn(a, b *packet.Probe) bool {
	want := (a.Dst ^ b.Dst) ^ uint32(a.SrcPort) ^ uint32(b.SrcPort) ^
		uint32(a.DstPort^b.DstPort)<<16
	return a.Seq^b.Seq == want
}

// ISNClass summarizes how a campaign chooses initial sequence numbers.
// Stateless scouts (masscan-style) derive the ISN from the target, so
// consecutive probes jump wildly; kernel TCP stacks hand out monotonically
// advancing ISNs, so a stateful scanner's consecutive SYNs sit close
// together. A two-phase campaign mixes both regimes.
type ISNClass uint8

const (
	// ISNUnknown means too few SYNs to judge (fewer than two).
	ISNUnknown ISNClass = iota
	// ISNIrregular is the stateless regime: ISNs jump randomly.
	ISNIrregular
	// ISNRegular is the stateful regime: ISNs advance in small steps.
	ISNRegular
	// ISNMixed holds a meaningful share of both — the two-phase signature.
	ISNMixed
)

var isnNames = [...]string{"unknown", "irregular", "regular", "mixed"}

// String returns the lower-case class name used by the query layer.
func (c ISNClass) String() string {
	if int(c) < len(isnNames) {
		return isnNames[c]
	}
	return "invalid"
}

// isnRegularWindow bounds the forward step between consecutive SYN ISNs that
// still counts as "regular". Kernel stacks advance the ISN clock plus a small
// per-connection offset; 2^24 covers seconds of wall time while a random
// cookie lands inside it only ~1/256 of the time.
const isnRegularWindow = 1 << 24

// Votes accumulates fingerprint evidence over the packets of one campaign.
// The pairwise tests compare each packet against the previous one from the
// same source — O(1) memory per flow (the pair-cache design; DESIGN.md "Key
// design choices" says why one pair per packet is enough).
type Votes struct {
	// Packets is the number of probes examined.
	Packets uint32
	// Pairs is the number of consecutive-probe comparisons performed.
	Pairs uint32
	// ZMap, Masscan, Mirai count per-packet matches.
	ZMap, Masscan, Mirai uint32
	// NMap, Unicorn count pairwise matches.
	NMap, Unicorn uint32
	// RegularISN and IrregularISN count consecutive-SYN sequence deltas that
	// fall inside / outside the stateful stack's window (see ISNClass).
	RegularISN, IrregularISN uint32
	// Handshakes counts phase-two segments (ACK/PSH-ACK of an invited
	// handshake) folded in via AddPhase2.
	Handshakes uint32
	// Payloads counts phase-two segments that carried data.
	Payloads uint32
	// PayloadBytes sums phase-two payload lengths.
	PayloadBytes uint64

	// PayloadPrefix keeps the first PayloadPrefixLen bytes of the first
	// payload seen — enough to tell HTTP from TLS from SSH banners.
	PayloadPrefix    [8]byte
	PayloadPrefixLen uint8

	prev    packet.Probe
	hasPrev bool
}

// Add folds one probe into the vote tally.
func (v *Votes) Add(p *packet.Probe) {
	v.addSingles(p)
	if v.hasPrev {
		v.addPair(&v.prev, p)
	}
	v.setPrev(p)
}

// AddBatch is a loop over Add, kept for callers that hold a slice (the
// benchmark's shadow pass). An in-place variant that copied the pair cache
// once per slice bought nothing measurable; see DESIGN.md "Hot path".
func (v *Votes) AddBatch(ps []packet.Probe) {
	for i := range ps {
		v.Add(&ps[i])
	}
}

// addSingles applies the per-packet fingerprints to one probe.
func (v *Votes) addSingles(p *packet.Probe) {
	v.Packets++
	if IsZMap(p) {
		v.ZMap++
	}
	if IsMasscan(p) {
		v.Masscan++
	}
	if IsMirai(p) {
		v.Mirai++
	}
}

// addPair applies the pairwise fingerprints and the ISN-delta classifier to
// one consecutive probe pair.
func (v *Votes) addPair(prev, p *packet.Probe) {
	v.Pairs++
	if d := p.Seq - prev.Seq; d != 0 && d < isnRegularWindow {
		v.RegularISN++
	} else {
		v.IrregularISN++
	}
	// Identical sequence numbers satisfy both pairwise relations
	// trivially (x == 0); only count them when the sequence actually
	// varies, otherwise a constant-seq custom scanner would be
	// misclassified as NMap.
	if x := prev.Seq ^ p.Seq; x != 0 {
		if PairNMap(prev, p) {
			v.NMap++
		}
	}
	if PairUnicorn(prev, p) && p.Seq != prev.Seq {
		v.Unicorn++
	}
}

// setPrev installs the pair cache. The payload header is dropped: the
// pairwise tests never read it, and retaining it would pin (or, for pooled
// batches, alias) buffers owned by the decode layer.
func (v *Votes) setPrev(p *packet.Probe) {
	v.prev = *p
	v.prev.Payload = nil
	v.hasPrev = true
}

// AddPhase2 folds one phase-two segment (handshake ACK or payload push of a
// reactive telescope's invited connection) into the tally. Phase-two packets
// never enter the SYN pair cache: their sequence numbers continue an
// established connection and would poison the ISN-regularity signal.
func (v *Votes) AddPhase2(p *packet.Probe) {
	v.Packets++
	v.Handshakes++
	if n := len(p.Payload); n > 0 {
		v.Payloads++
		v.PayloadBytes += uint64(n)
		if v.PayloadPrefixLen == 0 {
			c := copy(v.PayloadPrefix[:], p.Payload)
			v.PayloadPrefixLen = uint8(c)
		}
	}
}

// Merge folds another tally into v (used when two flow fragments of the
// same source are joined). The pair cache of other is discarded.
func (v *Votes) Merge(other *Votes) {
	v.Packets += other.Packets
	v.Pairs += other.Pairs
	v.ZMap += other.ZMap
	v.Masscan += other.Masscan
	v.Mirai += other.Mirai
	v.NMap += other.NMap
	v.Unicorn += other.Unicorn
	v.RegularISN += other.RegularISN
	v.IrregularISN += other.IrregularISN
	v.Handshakes += other.Handshakes
	v.Payloads += other.Payloads
	v.PayloadBytes += other.PayloadBytes
	if v.PayloadPrefixLen == 0 && other.PayloadPrefixLen > 0 {
		v.PayloadPrefix = other.PayloadPrefix
		v.PayloadPrefixLen = other.PayloadPrefixLen
	}
}

// ISN classifies the campaign's sequence-number regime from the accumulated
// delta counts. At least 10% regular deltas alongside irregular ones reads as
// mixed — the share a phase-two handshake train contributes next to a scout
// sweep; a 3:1 regular majority reads as a purely stateful scanner.
func (v *Votes) ISN() ISNClass {
	total := v.RegularISN + v.IrregularISN
	switch {
	case total == 0:
		return ISNUnknown
	case v.RegularISN*4 >= total*3:
		return ISNRegular
	case v.RegularISN*10 >= total:
		return ISNMixed
	default:
		return ISNIrregular
	}
}

// classifyThreshold is the fraction of packets (or pairs) that must match a
// tool's relation for the campaign to be attributed to that tool.
const classifyThreshold = 0.5

// Classify attributes the campaign to a tool, or ToolCustom when no
// fingerprint reaches the majority threshold. Per-packet fingerprints take
// precedence over pairwise ones: they are the stronger signal (the paper's
// method relies on ZMap/Masscan/Mirai markers first, and the pairwise
// relations require at least two probes).
func (v *Votes) Classify() tools.Tool {
	if v.Packets == 0 {
		return tools.ToolUnknown
	}
	// Per-packet fingerprints are defined on probe (SYN) headers; phase-two
	// handshake segments carry connection-bound sequence numbers and must not
	// dilute the tool shares.
	syns := v.Packets - v.Handshakes
	if syns == 0 {
		return tools.ToolCustom
	}
	pk := float64(syns)
	switch {
	case float64(v.ZMap) >= classifyThreshold*pk:
		return tools.ToolZMap
	case float64(v.Mirai) >= classifyThreshold*pk:
		return tools.ToolMirai
	case float64(v.Masscan) >= classifyThreshold*pk:
		return tools.ToolMasscan
	}
	if v.Pairs > 0 {
		pr := float64(v.Pairs)
		switch {
		case float64(v.Unicorn) >= classifyThreshold*pr:
			return tools.ToolUnicorn
		case float64(v.NMap) >= classifyThreshold*pr:
			return tools.ToolNMap
		}
	}
	return tools.ToolCustom
}
