package packet

import (
	"bytes"
	"testing"
)

// decoderCorpus builds the frame set shared by the differential and
// allocation tests: every transport the codec knows, payload and
// payload-less TCP, and assorted damage.
func decoderCorpus() [][]byte {
	frames := [][]byte{
		(&Probe{Src: 0x0a000001, Dst: 0xc0a80001, SrcPort: 40000, DstPort: 443,
			Seq: 7, Ack: 0, IPID: 54321, TTL: 64, Flags: FlagSYN, Window: 1024}).MarshalFrame(),
		(&Probe{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Flags: FlagSYN}).MarshalFrame(),
		(&Probe{Src: 9, Dst: 8, SrcPort: 7, DstPort: 6, Proto: ProtoUDP}).MarshalFrame(),
		(&Probe{Src: 5, Dst: 4, Flags: ICMPEchoRequest, SrcPort: 77, Seq: 3, Proto: ProtoICMP}).MarshalFrame(),
		(&Probe{Src: 11, Dst: 12, SrcPort: 13, DstPort: 80, Flags: FlagPSH | FlagACK,
			Seq: 100, Ack: 200, Payload: []byte("GET / HTTP/1.1\r\n")}).MarshalFrame(),
		(&Probe{Src: 21, Dst: 22, SrcPort: 23, DstPort: 22, Flags: FlagPSH | FlagACK,
			Payload: []byte("SSH-2.0-scanner")}).MarshalFrame(),
	}
	// Truncations of the SYN frame and a corrupted IHL.
	valid := frames[0]
	for cut := 1; cut < len(valid); cut += 5 {
		frames = append(frames, valid[:cut])
	}
	bad := append([]byte{}, valid...)
	bad[14] = 0x45 | 0x0a
	frames = append(frames, bad, []byte{}, make([]byte, EthernetHeaderLen))
	return frames
}

// probesEquivalent compares two decoded probes field-by-field. Payload is
// compared by contents: UnmarshalFrame yields nil for "no payload" while the
// Decoder yields a reused zero-length slice — the documented difference.
func probesEquivalent(a, b *Probe) bool {
	return a.Time == b.Time && a.Src == b.Src && a.Dst == b.Dst &&
		a.SrcPort == b.SrcPort && a.DstPort == b.DstPort &&
		a.Seq == b.Seq && a.Ack == b.Ack && a.IPID == b.IPID &&
		a.TTL == b.TTL && a.Flags == b.Flags && a.Window == b.Window &&
		a.Proto == b.Proto && bytes.Equal(a.Payload, b.Payload)
}

// TestDecoderMatchesUnmarshalFrame is the decode half of the differential
// suite: one reused Decoder+Probe over the whole corpus must agree with a
// fresh UnmarshalFrame on every frame — same error class, same fields —
// even though the Decoder recycles its Payload backing between calls.
func TestDecoderMatchesUnmarshalFrame(t *testing.T) {
	var d Decoder
	var reused Probe
	for i, frame := range decoderCorpus() {
		var ref Probe
		refErr := ref.UnmarshalFrame(frame)
		reused.Time = int64(i) // Decode must preserve Time
		ref.Time = int64(i)
		gotErr := d.Decode(frame, &reused)
		if (refErr == nil) != (gotErr == nil) || (refErr != nil && refErr != gotErr) {
			t.Fatalf("frame %d: Decode err %v, UnmarshalFrame err %v", i, gotErr, refErr)
		}
		if refErr != nil {
			continue
		}
		if !probesEquivalent(&reused, &ref) {
			t.Fatalf("frame %d: Decode %+v != UnmarshalFrame %+v", i, reused, ref)
		}
	}
}

// TestDecoderPayloadReuse pins the ownership rule: payload bytes are copies
// (scribbling the frame after Decode must not change them) and the backing
// array is reused across calls (no growth once warmed).
func TestDecoderPayloadReuse(t *testing.T) {
	var d Decoder
	var p Probe
	frame := (&Probe{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Flags: FlagPSH | FlagACK,
		Payload: []byte("hello payload")}).MarshalFrame()
	if err := d.Decode(frame, &p); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xff
	}
	if string(p.Payload) != "hello payload" {
		t.Fatalf("payload aliases the frame: %q", p.Payload)
	}
	first := cap(p.Payload)
	frame2 := (&Probe{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Flags: FlagPSH | FlagACK,
		Payload: []byte("bye")}).MarshalFrame()
	if err := d.Decode(frame2, &p); err != nil {
		t.Fatal(err)
	}
	if string(p.Payload) != "bye" {
		t.Fatalf("second decode payload = %q", p.Payload)
	}
	if cap(p.Payload) != first {
		t.Fatalf("payload backing not reused: cap %d -> %d", first, cap(p.Payload))
	}
}

// frameMix builds the frames BenchmarkDecodeFrame decodes and the probes
// they were marshalled from: 4 096 wire-format frames from 512 sources —
// SYNs, and a payload push every seventh frame, as a reactive capture holds
// them.
func frameMix() ([][]byte, []Probe) {
	frames, probes := make([][]byte, 4096), make([]Probe, 4096)
	for i := range frames {
		p := Probe{Src: 0x0b000000 + uint32(i%512)*7919, Dst: 0x0a000000 + uint32(i)*131,
			SrcPort: uint16(40000 + i%512), DstPort: 443, Seq: uint32(i) * 2654435761,
			IPID: uint16(i), TTL: 64, Flags: FlagSYN, Window: 1024}
		if i%7 == 0 {
			p.Flags = FlagPSH | FlagACK
			p.Payload = []byte("GET / HTTP/1.1\r\n")
		}
		frames[i], probes[i] = p.MarshalFrame(), p
	}
	return frames, probes
}

// TestDecodeFrameMix: every frame of the benchmark's mix decodes, through one
// reused Decoder, to the probe it was marshalled from, so the benchmark times
// whole decodes of both kinds and never its error path.
func TestDecodeFrameMix(t *testing.T) {
	frames, probes := frameMix()
	var d Decoder
	var p Probe
	pushes := 0
	for i, frame := range frames {
		if err := d.Decode(frame, &p); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !probesEquivalent(&p, &probes[i]) {
			t.Fatalf("frame %d: decoded %+v, marshalled %+v", i, p, probes[i])
		}
		if len(p.Payload) > 0 {
			pushes++
		}
	}
	if want := (len(frames) + 6) / 7; pushes != want {
		t.Fatalf("%d frames carried a payload, want %d", pushes, want)
	}
}

// BenchmarkDecodeFrame is the micro-view of the stage ledger's
// packet.decode_ns_per_pkt: one reusable Decoder over frameMix's frames.
func BenchmarkDecodeFrame(b *testing.B) {
	frames, _ := frameMix()
	var d Decoder
	var p Probe
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Decode(frames[i%len(frames)], &p); err != nil {
			b.Fatal(err)
		}
	}
}
