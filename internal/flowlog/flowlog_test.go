package flowlog

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/pcap"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 71536)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	pr := tools.NewMasscan(7, r)
	var in []packet.Probe
	tm := int64(0)
	for i := 0; i < 1000; i++ {
		p := pr.Probe(r.Uint32(), uint16(r.Intn(1000)))
		tm += int64(r.Intn(1e9))
		p.Time = tm
		in = append(in, p)
		if err := w.Write(&p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rd.TelescopeSize() != 71536 {
		t.Fatalf("telescope size = %d", rd.TelescopeSize())
	}
	var p packet.Probe
	for i := range in {
		if err := rd.Next(&p); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(p, in[i]) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, p, in[i])
		}
	}
	if err := rd.Next(&p); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(times []int64, src, dst, seq uint32, sp, dp uint16) bool {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, 100)
		if err != nil {
			return false
		}
		var in []packet.Probe
		for _, tm := range times {
			p := packet.Probe{Time: tm, Src: src, Dst: dst, Seq: seq,
				SrcPort: sp, DstPort: dp, Flags: packet.FlagSYN}
			in = append(in, p)
			if err := w.Write(&p); err != nil {
				return false
			}
		}
		w.Flush()
		rd, err := NewReader(&buf)
		if err != nil {
			return false
		}
		var p packet.Probe
		for i := range in {
			if err := rd.Next(&p); err != nil || !reflect.DeepEqual(p, in[i]) {
				return false
			}
		}
		return rd.Next(&p) == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDeltas(t *testing.T) {
	// Out-of-order timestamps must round-trip (zigzag).
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 10)
	times := []int64{100, 50, -200, 1 << 62, 0}
	for _, tm := range times {
		p := packet.Probe{Time: tm}
		if err := w.Write(&p); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	rd, _ := NewReader(&buf)
	var p packet.Probe
	for i, want := range times {
		if err := rd.Next(&p); err != nil {
			t.Fatal(err)
		}
		if p.Time != want {
			t.Fatalf("record %d: time %d, want %d", i, p.Time, want)
		}
	}
}

func TestHeaderErrors(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("short header accepted")
	}
	bad := append([]byte("XXXX"), make([]byte, 6)...)
	if _, err := NewReader(bytes.NewReader(bad)); err != ErrBadMagic {
		t.Fatalf("bad magic: %v", err)
	}
	badVer := append([]byte{}, Magic[:]...)
	badVer = append(badVer, 99, 0, 0, 0, 0, 0)
	if _, err := NewReader(bytes.NewReader(badVer)); err != ErrBadVersion {
		t.Fatalf("bad version: %v", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 10)
	p := packet.Probe{Time: 1e9, Src: 1}
	w.Write(&p)
	w.Flush()
	raw := buf.Bytes()
	rd, err := NewReader(bytes.NewReader(raw[:len(raw)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.Next(&p); err == nil {
		t.Fatal("truncated record accepted")
	}
}

// TestTruncationSurfacesUnexpectedEOF: a stream cut anywhere inside a
// record — including mid-varint in the leading timestamp, which a plain
// binary.ReadUvarint at the first byte would report as a clean io.EOF —
// must surface io.ErrUnexpectedEOF (internal/capture names the record). Only
// cuts exactly on a record boundary are a clean end of stream.
func TestTruncationSurfacesUnexpectedEOF(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 10)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := map[int]bool{}
	var ends []int
	for i := 0; i < 3; i++ {
		// Terabyte-scale deltas force multi-byte timestamp varints, so
		// mid-varint cut points exist for every record.
		p := packet.Probe{Time: int64(i+1) * 1e12, Src: uint32(i)}
		if err := w.Write(&p); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		boundaries[buf.Len()] = true
		ends = append(ends, buf.Len())
	}
	raw := buf.Bytes()

	drain := func(data []byte) (int, error) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return 0, err
		}
		var p packet.Probe
		for n := 0; ; n++ {
			if err := rd.Next(&p); err != nil {
				return n, err
			}
		}
	}

	for cut := headerLen + 1; cut < len(raw); cut++ {
		if boundaries[cut] {
			continue
		}
		if _, err := drain(raw[:cut]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}

	// A cut one byte into the second record's timestamp varint says which
	// part of the record is missing.
	if n, err := drain(raw[:ends[0]+1]); n != 1 || err == nil || !strings.Contains(err.Error(), "truncated timestamp") {
		t.Fatalf("mid-varint cut: %d records, error %v; want 1 and a truncated timestamp", n, err)
	}

	// The intact stream still ends cleanly.
	if n, err := drain(raw); n != 3 || err != io.EOF {
		t.Fatalf("clean stream: %d records, %v; want 3, io.EOF", n, err)
	}
}

func TestSmallerThanPcap(t *testing.T) {
	// The headline claim: flowlog is much denser than pcap for the same
	// probe stream.
	r := rng.New(2)
	pr := tools.NewZMap(9, r)
	var fl, pc bytes.Buffer
	fw, _ := NewWriter(&fl, 4096)
	pw, _ := pcap.NewWriter(&pc)
	frame := make([]byte, 0, packet.FrameLen)
	tm := int64(0)
	for i := 0; i < 5000; i++ {
		p := pr.Probe(r.Uint32(), 443)
		tm += int64(r.Intn(1e8))
		p.Time = tm
		fw.Write(&p)
		frame = p.AppendFrame(frame[:0])
		pw.WritePacket(p.Time, frame)
	}
	fw.Flush()
	pw.Flush()
	ratio := float64(pc.Len()) / float64(fl.Len())
	if ratio < 2 {
		t.Fatalf("flowlog only %.2fx denser than pcap (%d vs %d bytes)",
			ratio, fl.Len(), pc.Len())
	}
}

func BenchmarkWrite(b *testing.B) {
	w, _ := NewWriter(io.Discard, 4096)
	p := packet.Probe{Time: 1, Src: 2, Dst: 3, Seq: 4, Flags: packet.FlagSYN}
	b.SetBytes(29)
	for i := 0; i < b.N; i++ {
		p.Time += 1e6
		if err := w.Write(&p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRead(b *testing.B) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 4096)
	p := packet.Probe{Src: 2, Dst: 3, Seq: 4, Flags: packet.FlagSYN}
	const n = 100000
	for i := 0; i < n; i++ {
		p.Time += 1e6
		w.Write(&p)
	}
	w.Flush()
	raw := buf.Bytes()
	b.SetBytes(29)
	b.ResetTimer()
	var rd *Reader
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			var err error
			rd, err = NewReader(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := rd.Next(&p); err != nil {
			b.Fatal(err)
		}
	}
}
