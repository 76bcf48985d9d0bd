package packet

import "testing"

// FuzzUnmarshalFrame hardens the frame parser against arbitrary bytes: it
// must never panic and never read out of bounds, whatever a capture file
// contains. Run with `go test -fuzz=FuzzUnmarshalFrame` for a real fuzzing
// session; the seed corpus runs in every ordinary `go test`.
func FuzzUnmarshalFrame(f *testing.F) {
	valid := (&Probe{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Flags: FlagSYN}).MarshalFrame()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(make([]byte, 14))
	udp := (&Probe{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoUDP}).MarshalFrame()
	f.Add(udp)
	icmp := (&Probe{Src: 1, Dst: 2, Flags: ICMPEchoRequest, Proto: ProtoICMP}).MarshalFrame()
	f.Add(icmp)
	// Truncations and corruptions of a valid frame.
	for cut := 1; cut < len(valid); cut += 7 {
		f.Add(valid[:cut])
	}
	corrupt := append([]byte{}, valid...)
	corrupt[14] = 0x45 | 0x0a // absurd IHL
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Probe
		if err := p.UnmarshalFrame(data); err != nil {
			return // errors are fine; panics are not
		}
		// On success the probe must self-describe consistently.
		if p.Proto != 0 && p.Proto != ProtoTCP && p.Proto != ProtoUDP && p.Proto != ProtoICMP {
			t.Fatalf("accepted unknown proto %d", p.Proto)
		}
	})
}

// FuzzHandshakeFrame hardens the payload path of the frame codec: arbitrary
// payload bytes must round-trip through a PSH-ACK frame exactly, and
// arbitrary input bytes must never panic the payload extractor (including
// frames whose IP total length disagrees with the capture length).
func FuzzHandshakeFrame(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\n"), []byte{})
	f.Add([]byte{}, []byte{})
	pshack := (&Probe{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4,
		Flags: FlagPSH | FlagACK, Seq: 5, Ack: 6,
		Payload: []byte("SSH-2.0-")}).MarshalFrame()
	f.Add([]byte{0x16, 0x03, 0x01}, pshack)
	// A frame claiming more payload than was captured.
	short := append([]byte{}, pshack...)
	short = short[:len(short)-4]
	f.Add([]byte("x"), short)

	f.Fuzz(func(t *testing.T, payload, raw []byte) {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		in := Probe{Src: 0x0a000001, Dst: 0xc0a80001, SrcPort: 40000,
			DstPort: 80, Seq: 100, Ack: 200, TTL: 64,
			Flags: FlagPSH | FlagACK, Window: 65535, Payload: payload}
		frame := in.MarshalFrame()
		var out Probe
		if err := out.UnmarshalFrame(frame); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if string(out.Payload) != string(payload) {
			t.Fatalf("payload mismatch: sent %d bytes, got %d", len(payload), len(out.Payload))
		}
		var p Probe
		_ = p.UnmarshalFrame(raw) // must not panic
	})
}

// FuzzDecoder drives the reusable Decoder with the same corpus as
// FuzzUnmarshalFrame and holds it to the one-shot parser's behavior: same
// error, same fields, payload bytes equal — with one Decoder and one Probe
// reused across every input, so any corpus-order state leak surfaces.
func FuzzDecoder(f *testing.F) {
	valid := (&Probe{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Flags: FlagSYN}).MarshalFrame()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(make([]byte, 14))
	f.Add((&Probe{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoUDP}).MarshalFrame())
	f.Add((&Probe{Src: 1, Dst: 2, Flags: ICMPEchoRequest, Proto: ProtoICMP}).MarshalFrame())
	f.Add((&Probe{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Flags: FlagPSH | FlagACK,
		Payload: []byte("SSH-2.0-")}).MarshalFrame())
	for cut := 1; cut < len(valid); cut += 7 {
		f.Add(valid[:cut])
	}
	corrupt := append([]byte{}, valid...)
	corrupt[14] = 0x45 | 0x0a
	f.Add(corrupt)

	var d Decoder
	var got Probe
	f.Fuzz(func(t *testing.T, data []byte) {
		var want Probe
		wantErr := want.UnmarshalFrame(data)
		gotErr := d.Decode(data, &got)
		if wantErr != gotErr {
			t.Fatalf("Decode err %v, UnmarshalFrame err %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if got.Src != want.Src || got.Dst != want.Dst ||
			got.SrcPort != want.SrcPort || got.DstPort != want.DstPort ||
			got.Seq != want.Seq || got.Ack != want.Ack ||
			got.IPID != want.IPID || got.TTL != want.TTL ||
			got.Flags != want.Flags || got.Window != want.Window ||
			got.Proto != want.Proto || string(got.Payload) != string(want.Payload) {
			t.Fatalf("Decode %+v != UnmarshalFrame %+v", got, want)
		}
	})
}
