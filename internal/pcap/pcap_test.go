package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	packets := [][]byte{
		{1, 2, 3},
		{},
		bytes.Repeat([]byte{0xab}, 1500),
	}
	times := []int64{0, 1_000_000_001, 1700000000_123456789}
	for i, p := range packets {
		if err := w.WritePacket(times[i], p); err != nil {
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
	if r.LinkType() != LinkTypeEthernet {
		t.Fatalf("LinkType = %d", r.LinkType())
	}
	if !r.Nanosecond() {
		t.Fatal("writer should emit nanosecond format")
	}
	for i := range packets {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Time != times[i] {
			t.Fatalf("record %d: ts = %d, want %d", i, rec.Time, times[i])
		}
		if !bytes.Equal(rec.Data, packets[i]) {
			t.Fatalf("record %d: data mismatch", i)
		}
		if rec.OrigLen != uint32(len(packets[i])) {
			t.Fatalf("record %d: origLen = %d, want %d", i, rec.OrigLen, len(packets[i]))
		}
		if rec.Truncated() {
			t.Fatalf("record %d: spuriously truncated", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(tsRaw int64, payload []byte) bool {
		// The classic pcap format stores seconds in 32 bits; constrain the
		// generated timestamp to the representable range.
		const maxTS = int64(1)<<32*1e9 - 1
		ts := tsRaw % maxTS
		if ts < 0 {
			ts = -ts
		}
		if len(payload) > 65535 {
			payload = payload[:65535]
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		if err := w.WritePacket(ts, payload); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		rec, err := r.Next()
		if err != nil {
			return false
		}
		return rec.Time == ts && bytes.Equal(rec.Data, payload) && rec.OrigLen == uint32(len(payload))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterOptions(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WithSnaplen(100), WithLinkType(LinkTypeRaw))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(0, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Snaplen() != 100 || r.LinkType() != LinkTypeRaw {
		t.Fatalf("snaplen=%d linktype=%d", r.Snaplen(), r.LinkType())
	}
}

// TestWriterTruncatesToSnaplen: a record longer than the snap length is
// truncated to it (standard pcap capture semantics), with the true original
// length recorded in the header — not rejected (pre-fix, WritePacket
// errored and no record was written).
func TestWriterTruncatesToSnaplen(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WithSnaplen(64))
	if err != nil {
		t.Fatal(err)
	}
	full := make([]byte, 200)
	for i := range full {
		full[i] = byte(i)
	}
	if err := w.WritePacket(3e9, full); err != nil {
		t.Fatalf("oversized record must truncate, not error: %v", err)
	}
	// A short record after a truncated one must still round-trip.
	if err := w.WritePacket(4e9, []byte{7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Time != 3e9 {
		t.Fatalf("ts = %d", rec.Time)
	}
	if len(rec.Data) != 64 || !bytes.Equal(rec.Data, full[:64]) {
		t.Fatalf("captured %d bytes, want the first 64", len(rec.Data))
	}
	if rec.OrigLen != 200 || !rec.Truncated() {
		t.Fatalf("origLen = %d truncated = %v, want 200/true", rec.OrigLen, rec.Truncated())
	}
	rec, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Time != 4e9 || rec.OrigLen != 2 || rec.Truncated() || !bytes.Equal(rec.Data, []byte{7, 8}) {
		t.Fatalf("second record corrupted: %+v", rec)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestReaderSurfacesTruncatedRecords: a hand-built file with incl < orig
// (written by a capturing tool with a short snaplen) surfaces both lengths.
func TestReaderSurfacesTruncatedRecords(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], magicNano)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint32(hdr[16:20], 4) // snaplen 4
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[8:12], 4)    // incl_len
	binary.LittleEndian.PutUint32(rec[12:16], 999) // orig_len
	buf.Write(rec)
	buf.Write([]byte{1, 2, 3, 4})
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != 4 || got.OrigLen != 999 || !got.Truncated() {
		t.Fatalf("incl=%d orig=%d, want truncated 4/999", len(got.Data), got.OrigLen)
	}
}

func TestReaderBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); err != ErrBadMagic {
		t.Fatalf("got %v", err)
	}
}

func TestReaderShortHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 10))); err == nil {
		t.Fatal("short header should error")
	}
}

func TestReaderBadVersion(t *testing.T) {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], magicNano)
	binary.LittleEndian.PutUint16(hdr[4:6], 3)
	if _, err := NewReader(bytes.NewReader(hdr)); err != ErrBadVersion {
		t.Fatalf("got %v", err)
	}
}

// buildFile writes a capture in the specified endianness/precision by hand.
func buildFile(order binary.ByteOrder, nano bool, tsSec, tsSub uint32, payload []byte) []byte {
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	magic := magicMicro
	if nano {
		magic = magicNano
	}
	// Write the magic in the target order: a reader using LittleEndian
	// sees the swapped constant when the file is big-endian.
	order.PutUint32(hdr[0:4], magic)
	order.PutUint16(hdr[4:6], versionMajor)
	order.PutUint16(hdr[6:8], versionMinor)
	order.PutUint32(hdr[16:20], 65535)
	order.PutUint32(hdr[20:24], LinkTypeEthernet)
	buf.Write(hdr)
	rec := make([]byte, 16)
	order.PutUint32(rec[0:4], tsSec)
	order.PutUint32(rec[4:8], tsSub)
	order.PutUint32(rec[8:12], uint32(len(payload)))
	order.PutUint32(rec[12:16], uint32(len(payload)))
	buf.Write(rec)
	buf.Write(payload)
	return buf.Bytes()
}

func TestReaderBigEndianMicro(t *testing.T) {
	file := buildFile(binary.BigEndian, false, 10, 500, []byte{9, 9})
	r, err := NewReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if r.Nanosecond() {
		t.Fatal("micro variant misdetected")
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(10)*1e9 + 500*1e3; rec.Time != want {
		t.Fatalf("ts = %d, want %d", rec.Time, want)
	}
	if !bytes.Equal(rec.Data, []byte{9, 9}) {
		t.Fatal("payload mismatch")
	}
	if rec.OrigLen != 2 {
		t.Fatalf("origLen = %d, want 2", rec.OrigLen)
	}
}

func TestReaderLittleEndianMicro(t *testing.T) {
	file := buildFile(binary.LittleEndian, false, 7, 123, nil)
	r, err := NewReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	ts := rec.Time
	if want := int64(7)*1e9 + 123*1e3; ts != want {
		t.Fatalf("ts = %d, want %d", ts, want)
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	file := buildFile(binary.LittleEndian, true, 0, 0, []byte{1, 2, 3, 4})
	// Chop mid-payload.
	r, err := NewReader(bytes.NewReader(file[:len(file)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("truncated body should error")
	}
	// Chop mid-header.
	r, err = NewReader(bytes.NewReader(file[:24+8]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("truncated record header should error")
	}
}

func TestReaderRecordExceedsSnaplen(t *testing.T) {
	// The second file claims no snap length at all: its record length is
	// still bounded, or 40 bytes of input would make the reader allocate 4 GiB.
	for _, c := range []struct{ snaplen, incl uint32 }{{10, 100}, {0, 0xffffffff}} {
		var buf bytes.Buffer
		hdr := make([]byte, 24)
		binary.LittleEndian.PutUint32(hdr[0:4], magicNano)
		binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
		binary.LittleEndian.PutUint32(hdr[16:20], c.snaplen)
		binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
		buf.Write(hdr)
		rec := make([]byte, 16)
		binary.LittleEndian.PutUint32(rec[8:12], c.incl)
		buf.Write(rec)
		buf.Write(make([]byte, 100))
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("snaplen %d, record length %d: err = %v", c.snaplen, c.incl, err)
		}
	}
}

func TestReaderBufferReuse(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.WritePacket(1, []byte{1, 1, 1})
	w.WritePacket(2, []byte{2, 2, 2})
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := r.Next()
	first := rec.Data
	saved := make([]byte, len(first))
	copy(saved, first)
	rec, _ = r.Next()
	second := rec.Data
	if bytes.Equal(first, saved) && &first[0] != &second[0] {
		// Buffer may or may not alias depending on capacity growth; the
		// documented contract is only that callers must copy. Just verify
		// the second read is correct.
	}
	if !bytes.Equal(second, []byte{2, 2, 2}) {
		t.Fatal("second record corrupted")
	}
}

func BenchmarkWritePacket(b *testing.B) {
	w, _ := NewWriter(io.Discard)
	data := make([]byte, 54)
	b.SetBytes(54 + 16)
	for i := 0; i < b.N; i++ {
		if err := w.WritePacket(int64(i), data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadPacket(b *testing.B) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	data := make([]byte, 54)
	for i := 0; i < 10000; i++ {
		w.WritePacket(int64(i), data)
	}
	w.Flush()
	raw := buf.Bytes()
	b.SetBytes(54 + 16)
	b.ResetTimer()
	var r *Reader
	for i := 0; i < b.N; i++ {
		if i%10000 == 0 {
			var err error
			r, err = NewReader(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
		}
		if _, err := r.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// failWriter fails after n bytes to exercise error propagation.
type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, errFail
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	f.left -= n
	if n < len(p) {
		return n, errFail
	}
	return n, nil
}

var errFail = &failError{}

type failError struct{}

func (*failError) Error() string { return "synthetic write failure" }

func TestWriterErrorSticky(t *testing.T) {
	// Enough room for the header; fail during record flush.
	fw := &failWriter{left: fileHeaderLen}
	w, err := NewWriter(fw)
	if err != nil {
		t.Fatal(err)
	}
	// Writes land in the bufio buffer; Flush must surface the failure.
	big := make([]byte, 60000)
	if err := w.WritePacket(0, big); err != nil {
		// Buffered writers may fail during WritePacket once the buffer
		// spills — that is fine too.
		return
	}
	if err := w.WritePacket(1, big); err == nil {
		if err := w.Flush(); err == nil {
			t.Fatal("write failure never surfaced")
		}
	}
	// After a failure the writer stays failed.
	if err := w.Flush(); err == nil {
		t.Fatal("error must be sticky via Flush")
	}
}

func TestWriterHeaderError(t *testing.T) {
	if _, err := NewWriter(&failWriter{left: 0}); err != nil {
		// bufio may buffer the header; acceptable either way — force
		// the flush path if construction succeeded.
		return
	}
}

func TestReaderEOFCleanAfterRecords(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.WritePacket(5, []byte{1})
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("repeated Next after EOF: %v", err)
		}
	}
}
