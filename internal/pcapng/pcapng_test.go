package pcapng

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// builder assembles pcapng streams for the tests.
type builder struct {
	buf   bytes.Buffer
	order binary.ByteOrder
}

func newBuilder(order binary.ByteOrder) *builder {
	return &builder{order: order}
}

func (b *builder) block(typ uint32, body []byte) {
	for len(body)%4 != 0 {
		body = append(body, 0)
	}
	total := uint32(len(body) + 12)
	var w [4]byte
	b.order.PutUint32(w[:], typ)
	b.buf.Write(w[:])
	b.order.PutUint32(w[:], total)
	b.buf.Write(w[:])
	b.buf.Write(body)
	b.order.PutUint32(w[:], total)
	b.buf.Write(w[:])
}

func (b *builder) sectionHeader() {
	body := make([]byte, 16)
	b.order.PutUint32(body[0:4], byteOrderMagic)
	b.order.PutUint16(body[4:6], 1) // major
	b.order.PutUint16(body[6:8], 0) // minor
	// section length: -1 (unknown)
	b.order.PutUint64(body[8:16], ^uint64(0))
	b.block(blockSectionHeader, body)
}

func (b *builder) interfaceDesc(linkType uint16, opts []byte) {
	body := make([]byte, 8)
	b.order.PutUint16(body[0:2], linkType)
	b.order.PutUint32(body[4:8], 65535) // snaplen
	body = append(body, opts...)
	b.block(blockInterfaceDesc, body)
}

func (b *builder) enhancedPacket(ifaceID int, tsUnits uint64, data []byte) {
	body := make([]byte, 20)
	b.order.PutUint32(body[0:4], uint32(ifaceID))
	b.order.PutUint32(body[4:8], uint32(tsUnits>>32))
	b.order.PutUint32(body[8:12], uint32(tsUnits))
	b.order.PutUint32(body[12:16], uint32(len(data)))
	b.order.PutUint32(body[16:20], uint32(len(data)))
	body = append(body, data...)
	b.block(blockEnhancedPkt, body)
}

func (b *builder) tsresolOption(res byte) []byte {
	opt := make([]byte, 8)
	b.order.PutUint16(opt[0:2], 9) // if_tsresol
	b.order.PutUint16(opt[2:4], 1)
	opt[4] = res
	// opt_endofopt
	return opt
}

func TestReadEnhancedPackets(t *testing.T) {
	for _, order := range []binary.ByteOrder{binary.LittleEndian, binary.BigEndian} {
		b := newBuilder(order)
		b.sectionHeader()
		b.interfaceDesc(1, nil) // default microsecond resolution
		b.enhancedPacket(0, 5_000_000, []byte{1, 2, 3})
		b.enhancedPacket(0, 6_000_001, []byte{4, 5, 6, 7})

		r, err := NewReader(bytes.NewReader(b.buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		ts, data, id, err := r.Next()
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		if ts != 5_000_000*1000 || id != 0 || !bytes.Equal(data, []byte{1, 2, 3}) {
			t.Fatalf("%v: first packet ts=%d id=%d data=%v", order, ts, id, data)
		}
		if r.LinkType(0) != 1 {
			t.Fatalf("LinkType = %d", r.LinkType(0))
		}
		ts, data, _, err = r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ts != 6_000_001*1000 || !bytes.Equal(data, []byte{4, 5, 6, 7}) {
			t.Fatalf("second packet ts=%d data=%v", ts, data)
		}
		if _, _, _, err := r.Next(); err != io.EOF {
			t.Fatalf("want EOF, got %v", err)
		}
	}
}

func TestNanosecondResolution(t *testing.T) {
	b := newBuilder(binary.LittleEndian)
	b.sectionHeader()
	b.interfaceDesc(1, b.tsresolOption(9)) // 10^-9: nanoseconds
	b.enhancedPacket(0, 123456789, []byte{0xaa})
	r, err := NewReader(bytes.NewReader(b.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ts, _, _, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ts != 123456789 {
		t.Fatalf("ts = %d, want raw nanoseconds", ts)
	}
}

func TestPowerOfTwoResolution(t *testing.T) {
	b := newBuilder(binary.LittleEndian)
	b.sectionHeader()
	b.interfaceDesc(1, b.tsresolOption(0x80|10)) // 2^-10 s ≈ 976562 ns
	b.enhancedPacket(0, 1024, []byte{0xaa})      // exactly 1 second
	r, err := NewReader(bytes.NewReader(b.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ts, _, _, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	// 1024 units * (1e9 >> 10) ns; integer division gives 976562*1024.
	if ts < 999_000_000 || ts > 1_000_100_000 {
		t.Fatalf("ts = %d, want ~1s", ts)
	}
}

func TestSkipsUnknownBlocks(t *testing.T) {
	b := newBuilder(binary.LittleEndian)
	b.sectionHeader()
	b.interfaceDesc(1, nil)
	b.block(0x00000BAD, make([]byte, 16)) // unknown block
	b.enhancedPacket(0, 1, []byte{7})
	r, err := NewReader(bytes.NewReader(b.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_, data, _, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte{7}) {
		t.Fatalf("data = %v", data)
	}
}

func TestSimplePacketBlock(t *testing.T) {
	b := newBuilder(binary.LittleEndian)
	b.sectionHeader()
	b.interfaceDesc(1, nil)
	body := make([]byte, 4)
	binary.LittleEndian.PutUint32(body, 3)
	body = append(body, 9, 9, 9)
	b.block(blockSimplePacket, body)
	r, err := NewReader(bytes.NewReader(b.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_, data, _, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte{9, 9, 9}) {
		t.Fatalf("data = %v", data)
	}
}

// TestTruncated: a block whose original-length word exceeds the bytes it
// stores was cut to the snap length at capture time; Truncated reports it for
// the packet just returned, and only for that one.
func TestTruncated(t *testing.T) {
	b := newBuilder(binary.BigEndian)
	b.sectionHeader()
	b.interfaceDesc(1, nil)
	b.enhancedPacket(0, 1, []byte{1, 2, 3, 4})
	cut := make([]byte, 20, 24)
	b.order.PutUint32(cut[12:16], 4)  // captured
	b.order.PutUint32(cut[16:20], 60) // on the wire
	b.block(blockEnhancedPkt, append(cut, 5, 6, 7, 8))
	b.enhancedPacket(0, 3, []byte{9})
	simple := make([]byte, 4, 8)
	b.order.PutUint32(simple, 60)
	b.block(blockSimplePacket, append(simple, 5, 6, 7, 8))

	r, err := NewReader(bytes.NewReader(b.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{false, true, false, true} {
		_, data, _, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if r.Truncated() != want {
			t.Fatalf("packet %d (%v): Truncated() = %v, want %v", i, data, r.Truncated(), want)
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("notapcapng"))); err != ErrBadMagic {
		t.Fatalf("bad magic: %v", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); err != ErrBadMagic {
		t.Fatalf("empty: %v", err)
	}
	// Mismatched trailer length.
	b := newBuilder(binary.LittleEndian)
	b.sectionHeader()
	raw := b.buf.Bytes()
	raw[len(raw)-1] ^= 0xff
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.Next(); err != ErrCorrupted {
		t.Fatalf("trailer mismatch: %v", err)
	}
	// Truncated body.
	b = newBuilder(binary.LittleEndian)
	b.sectionHeader()
	b.enhancedPacket(0, 1, []byte{1, 2, 3})
	raw = b.buf.Bytes()
	r, _ = NewReader(bytes.NewReader(raw[:len(raw)-6]))
	if _, _, _, err := r.Next(); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestMultipleSections(t *testing.T) {
	// A stream may contain several sections; interfaces reset per section.
	b := newBuilder(binary.LittleEndian)
	b.sectionHeader()
	b.interfaceDesc(1, nil)
	b.enhancedPacket(0, 1, []byte{1})
	b.sectionHeader()
	b.interfaceDesc(101, nil) // raw link type in section 2
	b.enhancedPacket(0, 2, []byte{2})

	r, err := NewReader(bytes.NewReader(b.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, data, _, err := r.Next(); err != nil || data[0] != 1 {
		t.Fatalf("first: %v %v", data, err)
	}
	if _, data, _, err := r.Next(); err != nil || data[0] != 2 {
		t.Fatalf("second: %v %v", data, err)
	}
	if r.LinkType(0) != 101 {
		t.Fatalf("section-2 link type = %d", r.LinkType(0))
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	packets := [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{0xcc}, 300)}
	times := []int64{0, 123456789, 1_700_000_000_123_456_789}
	for i := range packets {
		if err := w.WritePacket(times[i], packets[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range packets {
		ts, data, id, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if ts != times[i] || id != 0 || !bytes.Equal(data, packets[i]) {
			t.Fatalf("packet %d: ts=%d id=%d data=%v", i, ts, id, data)
		}
	}
	if _, _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if r.LinkType(0) != 1 {
		t.Fatalf("link type = %d", r.LinkType(0))
	}
}
