package tools

import (
	"strconv"

	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/rng"
)

// PayloadFor returns the application payload a two-phase scanner pushes after
// completing a handshake on the given port, the way Spoki's payload corpus
// looks: HTTP request lines on web ports, a TLS ClientHello prefix on TLS
// ports, protocol banners elsewhere, and an opaque seed-derived blob for
// ports without a well-known first message. Deterministic in (port, seed).
func PayloadFor(port uint16, seed uint32) []byte {
	switch port {
	case 80, 8080, 81, 8000, 8888:
		return textPayload("GET / HTTP/1.1\r\nHost: ", seed&0xffff, ".probe\r\n\r\n")
	case 443, 8443:
		// TLS record header + handshake type: enough for prefix matching.
		return []byte{0x16, 0x03, 0x01, 0x02, 0x00, 0x01, 0x00, 0x01,
			0xfc, 0x03, 0x03, byte(seed >> 24), byte(seed >> 16), byte(seed >> 8), byte(seed)}
	case 22:
		return textPayload("SSH-2.0-probe_", seed&0xffff, "\r\n")
	case 23:
		// Telnet IAC negotiation: WILL/DO option bytes.
		return []byte{0xff, 0xfb, 0x1f, 0xff, 0xfb, 0x20, 0xff, 0xfd, 0x01, 0xff, 0xfd, 0x03}
	case 25, 587:
		return textPayload("EHLO host", seed&0xffff, "\r\n")
	case 6379:
		return []byte("*1\r\n$4\r\nPING\r\n")
	default:
		// Opaque probe blob: 8–24 deterministic bytes.
		n := 8 + int(seed%17)
		b := make([]byte, n)
		x := seed | 1
		for i := range b {
			x = x*0x01000193 + 0x811c9dc5
			b[i] = byte(x >> 13)
		}
		return b
	}
}

// textPayload is prefix, n in decimal and suffix, built in one slice of
// exactly their length.
func textPayload(prefix string, n uint32, suffix string) []byte {
	size := len(prefix) + 1 + len(suffix)
	for v := n; v >= 10; v /= 10 {
		size++
	}
	b := make([]byte, 0, size)
	b = append(b, prefix...)
	b = strconv.AppendUint(b, uint64(n), 10)
	return append(b, suffix...)
}

// TwoPhase couples a stateless scout with the kernel TCP stack it falls back
// to for phase two, modeling the masscan→libcurl style chains Spoki
// characterizes: the scout sweeps with target-derived ISNs, and for
// destinations that answer, the host's own stack opens a real connection —
// monotonically advancing ISNs, sequential IPIDs, an incrementing ephemeral
// source port — and pushes an application payload.
//
// Not safe for concurrent use; each simulated host owns its own TwoPhase.
type TwoPhase struct {
	scout Prober
	src   uint32
	r     *rng.Rand

	isn   uint32 // kernel ISN clock, advances a small step per connection
	ipid  uint16 // kernel IP identification counter
	eport uint16 // next ephemeral source port
	pseed uint32 // payload seed
}

// NewTwoPhase wraps a scout Prober with a simulated kernel stack for the
// phase-two handshakes. The stack's clocks derive from r.
func NewTwoPhase(scout Prober, src uint32, r *rng.Rand) *TwoPhase {
	return &TwoPhase{
		scout: scout,
		src:   src,
		r:     r,
		isn:   r.Uint32(),
		ipid:  uint16(r.Uint32()),
		eport: uint16(32768 + r.Intn(16384)),
		pseed: r.Uint32(),
	}
}

// Tool identifies the scout's tool family — the phase-one packets are what
// the per-packet fingerprints see.
func (t *TwoPhase) Tool() Tool { return t.scout.Tool() }

// Probe emits a phase-one scout probe (delegates to the wrapped Prober).
func (t *TwoPhase) Probe(dst uint32, dport uint16) packet.Probe {
	return t.scout.Probe(dst, dport)
}

// HandshakeSYN opens the phase-two connection to dst:dport: a kernel-stack
// SYN whose ISN advances in small steps connection to connection (the
// regular-ISN regime the fingerprint layer keys on).
func (t *TwoPhase) HandshakeSYN(dst uint32, dport uint16) packet.Probe {
	// ~64k ISN advance per connection: a busy host's ISN clock plus the
	// per-connection offset, always inside the regular window.
	t.isn += uint32(64000 + t.r.Intn(4096))
	t.ipid++
	t.eport++
	if t.eport < 32768 {
		t.eport = 32768
	}
	return packet.Probe{
		Src:     t.src,
		Dst:     dst,
		SrcPort: t.eport,
		DstPort: dport,
		Seq:     t.isn,
		IPID:    t.ipid,
		TTL:     hopTTL(t.r, 64),
		Flags:   packet.FlagSYN,
		Window:  64240,
	}
}

// HandshakeACK completes the handshake opened by syn, acknowledging the
// responder's SYN-ACK sequence number.
func (t *TwoPhase) HandshakeACK(syn *packet.Probe, synackSeq uint32) packet.Probe {
	t.ipid++
	return packet.Probe{
		Src:     syn.Src,
		Dst:     syn.Dst,
		SrcPort: syn.SrcPort,
		DstPort: syn.DstPort,
		Seq:     syn.Seq + 1,
		Ack:     synackSeq + 1,
		IPID:    t.ipid,
		TTL:     syn.TTL,
		Flags:   packet.FlagACK,
		Window:  64240,
	}
}

// PayloadPush sends the application payload on the established connection:
// a PSH-ACK carrying PayloadFor(dport, seed).
func (t *TwoPhase) PayloadPush(syn *packet.Probe, synackSeq uint32) packet.Probe {
	p := t.HandshakeACK(syn, synackSeq)
	p.Flags = packet.FlagPSH | packet.FlagACK
	p.Payload = PayloadFor(syn.DstPort, t.pseed^syn.Dst)
	return p
}
