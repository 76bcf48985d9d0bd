package packet

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{
		DstMAC:    [6]byte{1, 2, 3, 4, 5, 6},
		SrcMAC:    [6]byte{7, 8, 9, 10, 11, 12},
		EtherType: EtherTypeIPv4,
	}
	b := e.AppendTo(nil)
	if len(b) != EthernetHeaderLen {
		t.Fatalf("encoded length %d", len(b))
	}
	var got Ethernet
	if err := got.DecodeFromBytes(b); err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round trip: %+v != %+v", got, e)
	}
}

func TestEthernetTruncated(t *testing.T) {
	var e Ethernet
	if err := e.DecodeFromBytes(make([]byte, 13)); err != ErrTruncated {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	ip := IPv4{
		TOS:      0x10,
		TotalLen: 40,
		ID:       54321,
		Flags:    0x2,
		TTL:      64,
		Protocol: ProtoTCP,
		Src:      0xC0A80001,
		Dst:      0x08080808,
	}
	b := ip.AppendTo(nil)
	if len(b) != IPv4HeaderLen {
		t.Fatalf("encoded length %d", len(b))
	}
	var got IPv4
	if err := got.DecodeFromBytes(b); err != nil {
		t.Fatal(err)
	}
	if got.Checksum == 0 {
		t.Fatal("checksum not set")
	}
	if !got.VerifyChecksum(b) {
		t.Fatal("checksum does not verify")
	}
	got.Checksum = 0
	ip.Checksum = 0
	if got.Src != ip.Src || got.Dst != ip.Dst || got.ID != ip.ID ||
		got.TTL != ip.TTL || got.Protocol != ip.Protocol || got.TOS != ip.TOS ||
		got.Flags != ip.Flags || got.TotalLen != ip.TotalLen {
		t.Fatalf("round trip: %+v != %+v", got, ip)
	}
}

func TestIPv4Options(t *testing.T) {
	ip := IPv4{
		TotalLen: 44,
		TTL:      64,
		Protocol: ProtoTCP,
		Src:      1,
		Dst:      2,
		Options:  []byte{0x94, 0x04, 0x00, 0x00}, // router alert
	}
	b := ip.AppendTo(nil)
	if len(b) != 24 {
		t.Fatalf("encoded length %d, want 24", len(b))
	}
	var got IPv4
	if err := got.DecodeFromBytes(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Options, ip.Options) {
		t.Fatalf("options %x != %x", got.Options, ip.Options)
	}
	if got.HeaderLen() != 24 {
		t.Fatalf("HeaderLen = %d", got.HeaderLen())
	}
}

func TestIPv4Malformed(t *testing.T) {
	var ip IPv4
	if err := ip.DecodeFromBytes(make([]byte, 10)); err != ErrTruncated {
		t.Fatalf("short: %v", err)
	}
	b := make([]byte, 20)
	b[0] = 6 << 4 // IPv6 version nibble
	if err := ip.DecodeFromBytes(b); err != ErrNotIPv4 {
		t.Fatalf("version: %v", err)
	}
	b[0] = 4<<4 | 3 // IHL 12 bytes < 20
	if err := ip.DecodeFromBytes(b); err != ErrBadIHL {
		t.Fatalf("ihl: %v", err)
	}
	b[0] = 4<<4 | 15 // IHL 60 > len(data)
	if err := ip.DecodeFromBytes(b); err != ErrTruncated {
		t.Fatalf("ihl overflow: %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tcp := TCP{
		SrcPort: 44321,
		DstPort: 443,
		Seq:     0xdeadbeef,
		Ack:     0,
		Flags:   FlagSYN,
		Window:  65535,
		Urgent:  0,
	}
	b := tcp.AppendTo(nil, 0x01020304, 0x05060708)
	if len(b) != TCPHeaderLen {
		t.Fatalf("encoded length %d", len(b))
	}
	var got TCP
	if err := got.DecodeFromBytes(b); err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != tcp.SrcPort || got.DstPort != tcp.DstPort ||
		got.Seq != tcp.Seq || got.Flags != tcp.Flags || got.Window != tcp.Window {
		t.Fatalf("round trip: %+v != %+v", got, tcp)
	}
	if got.Checksum == 0 {
		t.Fatal("checksum not computed")
	}
}

func TestTCPOptions(t *testing.T) {
	tcp := TCP{
		SrcPort: 1,
		DstPort: 2,
		Flags:   FlagSYN,
		Options: []byte{0x02, 0x04, 0x05, 0xb4}, // MSS 1460
	}
	b := tcp.AppendTo(nil, 1, 2)
	if len(b) != 24 {
		t.Fatalf("encoded length %d", len(b))
	}
	var got TCP
	if err := got.DecodeFromBytes(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Options, tcp.Options) {
		t.Fatalf("options %x != %x", got.Options, tcp.Options)
	}
}

func TestTCPMalformed(t *testing.T) {
	var tcp TCP
	if err := tcp.DecodeFromBytes(make([]byte, 19)); err != ErrTruncated {
		t.Fatalf("short: %v", err)
	}
	b := make([]byte, 20)
	b[12] = 2 << 4 // data offset 8 bytes < 20
	if err := tcp.DecodeFromBytes(b); err != ErrBadDataOff {
		t.Fatalf("offset: %v", err)
	}
	b[12] = 10 << 4 // 40 bytes > len
	if err := tcp.DecodeFromBytes(b); err != ErrTruncated {
		t.Fatalf("offset overflow: %v", err)
	}
}

func TestChecksumRFC1071(t *testing.T) {
	// Classic RFC 1071 example.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Fatalf("Checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
	// Odd length.
	if got := Checksum([]byte{0xab}); got != ^uint16(0xab00) {
		t.Fatalf("odd Checksum = %#04x", got)
	}
}

func TestFlags(t *testing.T) {
	p := Probe{Flags: FlagSYN}
	if !p.IsSYN() {
		t.Fatal("SYN not detected")
	}
	p.Flags = FlagSYN | FlagACK
	if p.IsSYN() {
		t.Fatal("SYN/ACK misclassified as scan probe")
	}
	p.Flags = FlagRST
	if p.IsSYN() {
		t.Fatal("RST misclassified")
	}
}

func TestParseFormatIPv4(t *testing.T) {
	cases := []struct {
		s    string
		want uint32
	}{
		{"0.0.0.0", 0},
		{"255.255.255.255", 0xffffffff},
		{"192.168.0.1", 0xC0A80001},
		{"8.8.8.8", 0x08080808},
	}
	for _, c := range cases {
		got, err := ParseIPv4(c.s)
		if err != nil {
			t.Fatalf("ParseIPv4(%q): %v", c.s, err)
		}
		if got != c.want {
			t.Fatalf("ParseIPv4(%q) = %#x, want %#x", c.s, got, c.want)
		}
		if back := FormatIPv4(got); back != c.s {
			t.Fatalf("FormatIPv4(%#x) = %q, want %q", got, back, c.s)
		}
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3", "1.2.3.4x", "1234.1.1.1"} {
		if _, err := ParseIPv4(bad); err == nil {
			t.Fatalf("ParseIPv4(%q) should fail", bad)
		}
	}
}

func TestParseFormatRoundTripQuick(t *testing.T) {
	f := func(a uint32) bool {
		got, err := ParseIPv4(FormatIPv4(a))
		return err == nil && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProbeFrameRoundTrip(t *testing.T) {
	p := Probe{
		Time:    12345,
		Src:     0x0A000001,
		Dst:     0xC0A80002,
		SrcPort: 54321,
		DstPort: 23,
		Seq:     0xC0A80002, // Mirai-style
		IPID:    777,
		TTL:     55,
		Flags:   FlagSYN,
		Window:  14600,
	}
	frame := p.MarshalFrame()
	if len(frame) != FrameLen {
		t.Fatalf("frame length %d, want %d", len(frame), FrameLen)
	}
	var got Probe
	if err := got.UnmarshalFrame(frame); err != nil {
		t.Fatal(err)
	}
	got.Time = p.Time // Time is not on the wire
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, p)
	}
}

func TestProbeFrameChecksumsValid(t *testing.T) {
	p := Probe{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Flags: FlagSYN}
	frame := p.MarshalFrame()
	ipHeader := frame[EthernetHeaderLen : EthernetHeaderLen+IPv4HeaderLen]
	if Checksum(ipHeader) != 0 {
		t.Fatal("IP checksum invalid")
	}
	var ip IPv4
	if err := ip.DecodeFromBytes(ipHeader); err != nil {
		t.Fatal(err)
	}
	if !ip.VerifyChecksum(ipHeader) {
		t.Fatal("VerifyChecksum failed")
	}
}

func TestProbeFrameRejects(t *testing.T) {
	var p Probe
	if err := p.UnmarshalFrame(make([]byte, 5)); err != ErrTruncated {
		t.Fatalf("short frame: %v", err)
	}
	// IPv6 ethertype.
	e := Ethernet{EtherType: EtherTypeIPv6}
	frame := e.AppendTo(nil)
	frame = append(frame, make([]byte, 40)...)
	if err := p.UnmarshalFrame(frame); err != ErrNotIPv4 {
		t.Fatalf("ipv6 frame: %v", err)
	}
	// Unknown transport protocol (GRE).
	good := (&Probe{Src: 1, Dst: 2, Flags: FlagSYN}).MarshalFrame()
	good[EthernetHeaderLen+9] = 47
	if err := p.UnmarshalFrame(good); err != ErrNotTCP {
		t.Fatalf("gre packet: %v", err)
	}
	// Fragment.
	good = (&Probe{Src: 1, Dst: 2, Flags: FlagSYN}).MarshalFrame()
	good[EthernetHeaderLen+6] = 0x00
	good[EthernetHeaderLen+7] = 0x10 // frag offset 16
	if err := p.UnmarshalFrame(good); err != ErrNotTCP {
		t.Fatalf("fragment: %v", err)
	}
}

func TestUDPFrameRoundTrip(t *testing.T) {
	in := Probe{Src: 0x01020304, Dst: 0x05060708, SrcPort: 5353, DstPort: 1900,
		TTL: 60, Proto: ProtoUDP}
	frame := in.MarshalFrame()
	if len(frame) != EthernetHeaderLen+IPv4HeaderLen+UDPHeaderLen {
		t.Fatalf("udp frame length %d", len(frame))
	}
	var got Probe
	if err := got.UnmarshalFrame(frame); err != nil {
		t.Fatal(err)
	}
	if got.Proto != ProtoUDP || got.SrcPort != 5353 || got.DstPort != 1900 {
		t.Fatalf("udp round trip: %+v", got)
	}
	if got.IsTCP() || got.IsSYN() {
		t.Fatal("udp probe classified as TCP/SYN")
	}
}

func TestICMPFrameRoundTrip(t *testing.T) {
	in := Probe{Src: 1, Dst: 2, SrcPort: 777, Seq: 42, TTL: 60,
		Flags: ICMPEchoRequest, Proto: ProtoICMP}
	frame := in.MarshalFrame()
	if len(frame) != EthernetHeaderLen+IPv4HeaderLen+ICMPHeaderLen {
		t.Fatalf("icmp frame length %d", len(frame))
	}
	var got Probe
	if err := got.UnmarshalFrame(frame); err != nil {
		t.Fatal(err)
	}
	if got.Proto != ProtoICMP || got.Flags != ICMPEchoRequest ||
		got.SrcPort != 777 || got.Seq != 42 {
		t.Fatalf("icmp round trip: %+v", got)
	}
	if got.IsSYN() {
		t.Fatal("icmp probe classified as SYN")
	}
}

func TestUDPCodec(t *testing.T) {
	u := UDP{SrcPort: 9, DstPort: 53}
	b := u.AppendTo(nil, 1, 2, []byte{0xde, 0xad})
	if len(b) != UDPHeaderLen+2 {
		t.Fatalf("length %d", len(b))
	}
	var got UDP
	if err := got.DecodeFromBytes(b); err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 9 || got.DstPort != 53 || got.Length != 10 || got.Checksum == 0 {
		t.Fatalf("udp decode: %+v", got)
	}
	if err := got.DecodeFromBytes(b[:7]); err != ErrTruncated {
		t.Fatalf("short udp: %v", err)
	}
}

func TestICMPCodec(t *testing.T) {
	e := ICMPEcho{Type: ICMPEchoRequest, ID: 11, Seq: 22}
	b := e.AppendTo(nil)
	// The encoded header must checksum to zero.
	if Checksum(b) != 0 {
		t.Fatal("icmp checksum invalid")
	}
	var got ICMPEcho
	if err := got.DecodeFromBytes(b); err != nil {
		t.Fatal(err)
	}
	if got.Type != ICMPEchoRequest || got.ID != 11 || got.Seq != 22 {
		t.Fatalf("icmp decode: %+v", got)
	}
	if err := got.DecodeFromBytes(b[:5]); err != ErrTruncated {
		t.Fatalf("short icmp: %v", err)
	}
}

func TestProbeString(t *testing.T) {
	p := Probe{Src: 0x01020304, Dst: 0x05060708, SrcPort: 1000, DstPort: 80, Flags: FlagSYN}
	s := p.String()
	if s == "" || len(s) < 20 {
		t.Fatalf("String() = %q", s)
	}
}

func BenchmarkProbeMarshalFrame(b *testing.B) {
	p := Probe{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Flags: FlagSYN}
	buf := make([]byte, 0, FrameLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = p.AppendFrame(buf[:0])
	}
}

func BenchmarkProbeUnmarshalFrame(b *testing.B) {
	frame := (&Probe{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Flags: FlagSYN}).MarshalFrame()
	var p Probe
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.UnmarshalFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func TestServiceName(t *testing.T) {
	cases := map[uint16]string{
		22:    "ssh",
		80:    "http",
		443:   "https",
		2323:  "telnet-alt",
		3389:  "rdp",
		8545:  "json-rpc",
		12345: "",
	}
	for port, want := range cases {
		if got := ServiceName(port); got != want {
			t.Errorf("ServiceName(%d) = %q, want %q", port, got, want)
		}
	}
}
