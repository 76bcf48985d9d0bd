// Package pcap reads and writes the classic libpcap capture file format,
// which is how telescope operators archive raw traffic. Both the microsecond
// (magic 0xa1b2c3d4) and nanosecond (0xa1b23c4d) variants are supported, in
// either byte order on the read side; the writer emits the nanosecond
// little-endian variant.
//
// Only the standard library is used. The modern pcapng container (the
// Wireshark default) is the sibling internal/pcapng package; internal/capture
// is the front over both and the only importer of either.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Link types (a small subset of the registry).
const (
	LinkTypeNull     uint32 = 0
	LinkTypeEthernet uint32 = 1
	LinkTypeRaw      uint32 = 101
)

const (
	magicMicro        uint32 = 0xa1b2c3d4
	magicNano         uint32 = 0xa1b23c4d
	magicMicroSwapped uint32 = 0xd4c3b2a1
	magicNanoSwapped  uint32 = 0x4d3cb2a1

	versionMajor = 2
	versionMinor = 4

	fileHeaderLen   = 24
	recordHeaderLen = 16

	// maxRecordLen bounds a record's stored length when the file header's
	// snap length does not (0, or larger): the reader allocates that many
	// bytes before it has read any of them. pcapng bounds its blocks alike.
	maxRecordLen = 1 << 24
)

// Errors specific to the format.
var (
	ErrBadMagic   = errors.New("pcap: bad magic number")
	ErrBadVersion = errors.New("pcap: unsupported version")
)

// Writer writes packets to a pcap stream.
type Writer struct {
	w       *bufio.Writer
	snaplen uint32
	hdr     [recordHeaderLen]byte
	err     error
}

// WriterOption configures a Writer.
type WriterOption func(*writerConfig)

type writerConfig struct {
	snaplen  uint32
	linkType uint32
}

// WithSnaplen sets the snap length recorded in the file header (default 65535).
func WithSnaplen(n uint32) WriterOption {
	return func(c *writerConfig) { c.snaplen = n }
}

// WithLinkType sets the link type (default LinkTypeEthernet).
func WithLinkType(lt uint32) WriterOption {
	return func(c *writerConfig) { c.linkType = lt }
}

// NewWriter writes a pcap file header to w and returns a packet writer.
// Timestamps are stored with nanosecond resolution.
func NewWriter(w io.Writer, opts ...WriterOption) (*Writer, error) {
	cfg := writerConfig{snaplen: 65535, linkType: LinkTypeEthernet}
	for _, o := range opts {
		o(&cfg)
	}
	var hdr [fileHeaderLen]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:4], magicNano)
	le.PutUint16(hdr[4:6], versionMajor)
	le.PutUint16(hdr[6:8], versionMinor)
	// thiszone and sigfigs stay zero.
	le.PutUint32(hdr[16:20], cfg.snaplen)
	le.PutUint32(hdr[20:24], cfg.linkType)
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, snaplen: cfg.snaplen}, nil
}

// WritePacket appends one record with the given capture timestamp in
// nanoseconds since the Unix epoch. Records longer than the snap length are
// truncated to it — the standard pcap capture semantics — with the full
// original length recorded in the record header's orig_len field, so
// readers can tell a truncated record from a complete one.
func (w *Writer) WritePacket(tsNanos int64, data []byte) error {
	if w.err != nil {
		return w.err
	}
	incl := data
	if uint32(len(incl)) > w.snaplen {
		incl = incl[:w.snaplen]
	}
	le := binary.LittleEndian
	sec := tsNanos / 1e9
	nsec := tsNanos % 1e9
	if nsec < 0 {
		sec--
		nsec += 1e9
	}
	le.PutUint32(w.hdr[0:4], uint32(sec))
	le.PutUint32(w.hdr[4:8], uint32(nsec))
	le.PutUint32(w.hdr[8:12], uint32(len(incl)))
	le.PutUint32(w.hdr[12:16], uint32(len(data)))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(incl); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader reads packets from a pcap stream.
type Reader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	nano     bool
	snaplen  uint32
	maxIncl  uint32 // snaplen, or maxRecordLen where that is tighter
	linkType uint32
	buf      []byte
}

// NewReader parses the file header from r and returns a packet reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("pcap: file header: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	var order binary.ByteOrder
	var nano bool
	switch magic {
	case magicMicro:
		order, nano = binary.LittleEndian, false
	case magicNano:
		order, nano = binary.LittleEndian, true
	case magicMicroSwapped:
		order, nano = binary.BigEndian, false
	case magicNanoSwapped:
		order, nano = binary.BigEndian, true
	default:
		return nil, ErrBadMagic
	}
	if order.Uint16(hdr[4:6]) != versionMajor {
		return nil, ErrBadVersion
	}
	rd := &Reader{
		r:        br,
		order:    order,
		nano:     nano,
		snaplen:  order.Uint32(hdr[16:20]),
		linkType: order.Uint32(hdr[20:24]),
	}
	if rd.maxIncl = rd.snaplen; rd.maxIncl == 0 || rd.maxIncl > maxRecordLen {
		rd.maxIncl = maxRecordLen
	}
	return rd, nil
}

// LinkType returns the capture's link type.
func (r *Reader) LinkType() uint32 { return r.linkType }

// Snaplen returns the capture's snap length.
func (r *Reader) Snaplen() uint32 { return r.snaplen }

// Nanosecond reports whether timestamps carry nanosecond resolution.
func (r *Reader) Nanosecond() bool { return r.nano }

// Record is one captured packet as stored in the file.
type Record struct {
	// Time is the capture timestamp in nanoseconds since the Unix epoch.
	Time int64
	// Data is the captured bytes. The slice is reused by subsequent Next
	// calls; callers that keep it must copy.
	Data []byte
	// OrigLen is the packet's original on-the-wire length, which exceeds
	// len(Data) when the capture truncated the packet to its snap length.
	OrigLen uint32
}

// Truncated reports whether the capture stored fewer bytes than were on the
// wire (len(Data) < OrigLen).
func (rec Record) Truncated() bool { return uint32(len(rec.Data)) < rec.OrigLen }

// Next returns the next record. Record.Data is reused by subsequent calls;
// callers that keep it must copy. At end of stream Next returns io.EOF; a
// record cut off by it is io.ErrUnexpectedEOF, and any other failure of the
// underlying reader is returned as that reader's error.
func (r *Reader) Next() (Record, error) {
	hdr, err := r.r.Peek(recordHeaderLen)
	if len(hdr) < recordHeaderLen {
		switch {
		case err != nil && err != io.EOF:
			return Record{}, fmt.Errorf("pcap: record header: %w", err)
		case len(hdr) == 0:
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("pcap: truncated record header: %w", io.ErrUnexpectedEOF)
	}
	sec := r.order.Uint32(hdr[0:4])
	sub := r.order.Uint32(hdr[4:8])
	incl := r.order.Uint32(hdr[8:12])
	orig := r.order.Uint32(hdr[12:16])
	if incl > r.maxIncl {
		return Record{}, fmt.Errorf("pcap: record length %d exceeds the limit of %d (snaplen %d)", incl, r.maxIncl, r.snaplen)
	}
	if _, err := r.r.Discard(recordHeaderLen); err != nil {
		return Record{}, err
	}
	if cap(r.buf) < int(incl) {
		r.buf = make([]byte, incl)
	}
	r.buf = r.buf[:incl]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Record{}, fmt.Errorf("pcap: truncated record body: %w", io.ErrUnexpectedEOF)
		}
		return Record{}, fmt.Errorf("pcap: record body: %w", err)
	}
	ts := int64(sec) * 1e9
	if r.nano {
		ts += int64(sub)
	} else {
		ts += int64(sub) * 1e3
	}
	return Record{Time: ts, Data: r.buf, OrigLen: orig}, nil
}
