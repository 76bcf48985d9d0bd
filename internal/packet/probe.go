package packet

import "fmt"

// Probe is the decoded tuple the telescope pipeline operates on: one TCP
// probe (usually a SYN) observed at a monitored address. It carries exactly
// the header fields the paper's methodology consumes — the IP identification
// and TCP sequence number are what the tool fingerprints of §3.3 key on.
//
// Probe is a plain value type, cheap to copy and suitable for tight loops
// over hundreds of millions of packets.
type Probe struct {
	// Time is the capture timestamp in nanoseconds on the (virtual) clock.
	Time int64
	// Src and Dst are the IPv4 source and destination addresses.
	Src, Dst uint32
	// SrcPort and DstPort are the TCP ports.
	SrcPort, DstPort uint16
	// Seq and Ack are the TCP sequence and acknowledgment numbers.
	Seq, Ack uint32
	// IPID is the IPv4 identification field.
	IPID uint16
	// TTL is the IPv4 time-to-live as observed at the telescope.
	TTL uint8
	// Flags holds the TCP control bits (for ICMP, the echo type).
	Flags uint8
	// Window is the advertised TCP receive window.
	Window uint16
	// Proto is the IP protocol. Zero is treated as TCP so that the
	// overwhelmingly common case needs no initialization; UDP and ICMP
	// probes (reflection sweeps, ping scans) set it explicitly and are
	// dropped by the telescope's TCP/SYN filter.
	Proto uint8
	// Payload holds TCP payload bytes, if any. One-way SYN scanning never
	// carries a payload; it appears on the reactive path's phase-two
	// PSH-ACK segments (the application data a two-phase scanner sends
	// once a synthesized SYN-ACK completes its handshake).
	Payload []byte
}

// IsTCP reports whether the probe is a TCP segment.
func (p *Probe) IsTCP() bool { return p.Proto == 0 || p.Proto == ProtoTCP }

// IsSYN reports whether the probe is a pure TCP SYN (SYN set, ACK clear) —
// the filter the paper applies to separate scans from backscatter (§3.2).
func (p *Probe) IsSYN() bool {
	return p.IsTCP() && p.Flags&FlagSYN != 0 && p.Flags&FlagACK == 0
}

// IsSYNACK reports whether the probe is a SYN-ACK — the responder's
// synthesized second handshake step on the reactive path.
func (p *Probe) IsSYNACK() bool {
	return p.IsTCP() && p.Flags&FlagSYN != 0 && p.Flags&FlagACK != 0
}

// IsACK reports whether the probe is a plain ACK segment (ACK set, no SYN,
// RST or FIN): the handshake-completing and data-carrying segments of a
// two-phase scanner's second phase.
func (p *Probe) IsACK() bool {
	return p.IsTCP() && p.Flags&FlagACK != 0 &&
		p.Flags&(FlagSYN|FlagRST|FlagFIN) == 0
}

// HasPayload reports whether the probe carries TCP payload bytes.
func (p *Probe) HasPayload() bool { return len(p.Payload) > 0 }

// String renders the probe in a compact tcpdump-like form.
func (p *Probe) String() string {
	return fmt.Sprintf("%s:%d > %s:%d flags=%#02x seq=%d ipid=%d",
		FormatIPv4(p.Src), p.SrcPort, FormatIPv4(p.Dst), p.DstPort,
		p.Flags, p.Seq, p.IPID)
}

// defaultMACs used in generated frames; the telescope never inspects them.
var (
	srcMAC = [6]byte{0x02, 0x53, 0x59, 0x4e, 0x00, 0x01} // locally administered
	dstMAC = [6]byte{0x02, 0x53, 0x59, 0x4e, 0x00, 0x02}
)

// AppendFrame serializes the probe as a minimal Ethernet+IPv4+transport
// frame onto b and returns the extended slice (54 bytes for a payload-less
// TCP segment, 42 for UDP and ICMP). Checksums are valid.
func (p *Probe) AppendFrame(b []byte) []byte {
	eth := Ethernet{DstMAC: dstMAC, SrcMAC: srcMAC, EtherType: EtherTypeIPv4}
	b = eth.AppendTo(b)
	proto := p.Proto
	if proto == 0 {
		proto = ProtoTCP
	}
	var transportLen int
	switch proto {
	case ProtoTCP:
		transportLen = TCPHeaderLen + len(p.Payload)
	case ProtoUDP:
		transportLen = UDPHeaderLen
	case ProtoICMP:
		transportLen = ICMPHeaderLen
	default:
		transportLen = 0
	}
	ip := IPv4{
		TotalLen: uint16(IPv4HeaderLen + transportLen),
		ID:       p.IPID,
		Flags:    0x2, // DF, as set by all the scanners we model
		TTL:      p.TTL,
		Protocol: proto,
		Src:      p.Src,
		Dst:      p.Dst,
	}
	b = ip.AppendTo(b)
	switch proto {
	case ProtoUDP:
		udp := UDP{SrcPort: p.SrcPort, DstPort: p.DstPort}
		return udp.AppendTo(b, p.Src, p.Dst, nil)
	case ProtoICMP:
		echo := ICMPEcho{Type: p.Flags, ID: p.SrcPort, Seq: uint16(p.Seq)}
		return echo.AppendTo(b)
	default:
		tcp := TCP{
			SrcPort: p.SrcPort,
			DstPort: p.DstPort,
			Seq:     p.Seq,
			Ack:     p.Ack,
			Flags:   p.Flags,
			Window:  p.Window,
		}
		return tcp.AppendPayload(b, p.Src, p.Dst, p.Payload)
	}
}

// MarshalFrame is AppendFrame into a fresh slice.
func (p *Probe) MarshalFrame() []byte {
	return p.AppendFrame(make([]byte, 0, FrameLen+len(p.Payload)))
}

// UnmarshalFrame parses an Ethernet+IPv4 frame into p. TCP, UDP and ICMP
// echo transports are decoded (Proto records which); other protocols and
// non-IPv4 frames return ErrNotTCP / ErrNotIPv4, which the telescope counts
// and drops. The Time field is left untouched (it comes from the capture
// layer, not the wire).
func (p *Probe) UnmarshalFrame(frame []byte) error {
	var eth Ethernet
	if err := eth.DecodeFromBytes(frame); err != nil {
		return err
	}
	if eth.EtherType != EtherTypeIPv4 {
		return ErrNotIPv4
	}
	var ip IPv4
	if err := ip.DecodeFromBytes(frame[EthernetHeaderLen:]); err != nil {
		return err
	}
	if ip.FragOffset != 0 {
		// Later fragments carry no transport header; scanners never
		// fragment.
		return ErrNotTCP
	}
	*p = Probe{Time: p.Time, Src: ip.Src, Dst: ip.Dst, IPID: ip.ID, TTL: ip.TTL}
	rest := frame[EthernetHeaderLen+ip.HeaderLen():]
	switch ip.Protocol {
	case ProtoTCP:
		var tcp TCP
		if err := tcp.DecodeFromBytes(rest); err != nil {
			return err
		}
		p.SrcPort, p.DstPort = tcp.SrcPort, tcp.DstPort
		p.Seq, p.Ack = tcp.Seq, tcp.Ack
		p.Flags = tcp.Flags
		p.Window = tcp.Window
		// Payload: the bytes between the TCP header and the IP total
		// length, bounded by the capture. Copied, because capture layers
		// reuse the frame buffer between records.
		end := int(ip.TotalLen) - ip.HeaderLen()
		if end > len(rest) {
			end = len(rest)
		}
		if off := tcp.HeaderLen(); end > off {
			p.Payload = append([]byte(nil), rest[off:end]...)
		}
		return nil
	case ProtoUDP:
		var udp UDP
		if err := udp.DecodeFromBytes(rest); err != nil {
			return err
		}
		p.Proto = ProtoUDP
		p.SrcPort, p.DstPort = udp.SrcPort, udp.DstPort
		return nil
	case ProtoICMP:
		var echo ICMPEcho
		if err := echo.DecodeFromBytes(rest); err != nil {
			return err
		}
		p.Proto = ProtoICMP
		p.Flags = echo.Type
		p.SrcPort = echo.ID
		p.Seq = uint32(echo.Seq)
		return nil
	default:
		return ErrNotTCP
	}
}
