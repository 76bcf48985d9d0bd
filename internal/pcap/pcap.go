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

	"github.com/synscan/synscan/internal/obs"
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

	resync   bool
	lastSec  int64 // last good record's sec field; 0 = none yet
	resyncs  uint64
	skipped  uint64
	mResyncs *obs.Counter
	mSkipped *obs.Counter
}

// ReaderOption configures a Reader.
type ReaderOption func(*Reader)

// WithResync makes the reader recover from in-stream corruption instead of
// failing: a record header that fails validation triggers a forward scan to
// the next plausible 16-byte record boundary (sane sub-second field, length
// within the snap length, capture time near the last good record), and a
// record cut off at end of stream is dropped with a clean io.EOF. Skipped
// spans are counted in Resyncs/SkippedBytes and the faults.pcap.* metrics.
// pcap records carry no checksum, so corruption that still parses plausibly
// is not detectable — resync bounds the damage, it cannot prove integrity.
func WithResync() ReaderOption {
	return func(r *Reader) { r.resync = true }
}

// NewReader parses the file header from r and returns a packet reader.
func NewReader(r io.Reader, opts ...ReaderOption) (*Reader, error) {
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
	for _, o := range opts {
		o(rd)
	}
	rd.SetMetrics(nil)
	return rd, nil
}

// SetMetrics wires the reader's fault instrumentation (resyncs performed,
// bytes skipped while resyncing). A nil registry disables it.
func (r *Reader) SetMetrics(reg *obs.Registry) {
	r.mResyncs = reg.Counter("faults.pcap.resyncs")
	r.mSkipped = reg.Counter("faults.pcap.skipped_bytes")
}

// Resyncs returns how many corruption recoveries a WithResync reader has
// performed.
func (r *Reader) Resyncs() uint64 { return r.resyncs }

// SkippedBytes returns how many bytes a WithResync reader has discarded
// while scanning for record boundaries.
func (r *Reader) SkippedBytes() uint64 { return r.skipped }

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
// callers that keep it must copy. At end of stream Next returns io.EOF.
// A reader built WithResync skips corrupt spans instead of erroring; see
// WithResync.
func (r *Reader) Next() (Record, error) {
	for {
		hdr, err := r.r.Peek(recordHeaderLen)
		if len(hdr) == 0 {
			if err == nil {
				err = io.EOF
			}
			return Record{}, err
		}
		if len(hdr) < recordHeaderLen {
			if r.resync {
				// Trailing bytes too short for any record: drop them.
				n, _ := r.r.Discard(len(hdr))
				r.addSkipped(n)
				return Record{}, io.EOF
			}
			return Record{}, fmt.Errorf("pcap: truncated record header: %w", io.ErrUnexpectedEOF)
		}
		sec := r.order.Uint32(hdr[0:4])
		sub := r.order.Uint32(hdr[4:8])
		incl := r.order.Uint32(hdr[8:12])
		orig := r.order.Uint32(hdr[12:16])
		if incl > r.maxIncl {
			if r.resync {
				if !r.resyncScan() {
					return Record{}, io.EOF
				}
				continue
			}
			return Record{}, fmt.Errorf("pcap: record length %d exceeds the limit of %d (snaplen %d)", incl, r.maxIncl, r.snaplen)
		}
		if r.resync && !r.plausibleHeader(hdr) {
			if !r.resyncScan() {
				return Record{}, io.EOF
			}
			continue
		}
		if _, err := r.r.Discard(recordHeaderLen); err != nil {
			return Record{}, err
		}
		if cap(r.buf) < int(incl) {
			r.buf = make([]byte, incl)
		}
		r.buf = r.buf[:incl]
		if n, err := io.ReadFull(r.r, r.buf); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				if r.resync {
					// A record cut off at end of stream: drop what remains.
					r.addSkipped(recordHeaderLen + n)
					return Record{}, io.EOF
				}
				return Record{}, fmt.Errorf("pcap: truncated record body: %w", io.ErrUnexpectedEOF)
			}
			return Record{}, err
		}
		r.lastSec = int64(sec)
		ts := int64(sec) * 1e9
		if r.nano {
			ts += int64(sub)
		} else {
			ts += int64(sub) * 1e3
		}
		return Record{Time: ts, Data: r.buf, OrigLen: orig}, nil
	}
}

// plausibleHeader reports whether a 16-byte candidate looks like a real
// record header: sub-second field within the timestamp resolution, length
// within the snap length, original length no smaller than the captured
// length, and — once a record has been read — a capture time within a year
// of the last good record.
func (r *Reader) plausibleHeader(hdr []byte) bool {
	sec := int64(r.order.Uint32(hdr[0:4]))
	sub := r.order.Uint32(hdr[4:8])
	incl := r.order.Uint32(hdr[8:12])
	orig := r.order.Uint32(hdr[12:16])
	subBound := uint32(1e6)
	if r.nano {
		subBound = 1e9
	}
	if sub >= subBound {
		return false
	}
	if incl > r.maxIncl {
		return false
	}
	if orig < incl {
		return false
	}
	if r.lastSec != 0 {
		const yearSec = 366 * 24 * 3600
		if sec < r.lastSec-yearSec || sec > r.lastSec+yearSec {
			return false
		}
	}
	return true
}

// resyncScan advances the stream one byte at a time until a plausible record
// header starts, counting the span it skips. It reports false when the
// stream ends first (the remaining tail is consumed and counted).
func (r *Reader) resyncScan() bool {
	r.resyncs++
	r.mResyncs.Inc()
	skipped := 0
	for {
		n, _ := r.r.Discard(1)
		skipped += n
		if n == 0 {
			r.addSkipped(skipped)
			return false
		}
		hdr, _ := r.r.Peek(recordHeaderLen)
		if len(hdr) < recordHeaderLen {
			n, _ := r.r.Discard(len(hdr))
			r.addSkipped(skipped + n)
			return false
		}
		if r.plausibleHeader(hdr) {
			r.addSkipped(skipped)
			return true
		}
	}
}

func (r *Reader) addSkipped(n int) {
	r.skipped += uint64(n)
	r.mSkipped.Add(uint64(n))
}
