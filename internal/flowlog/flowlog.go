// Package flowlog implements a compact append-only spool format for probe
// streams. Telescope operators re-analyze captures constantly; full pcap
// frames carry link/network framing and checksums the analyses never read.
// A flowlog record stores exactly the Probe tuple, with the timestamp
// encoded as a zigzag varint delta from the previous record — about 30
// bytes per probe against pcap's 70, and parsing is a flat copy instead of
// a three-layer decode.
//
// Format:
//
//	header:  magic "SYNL" | version u8 | reserved u8 | telescopeSize u32 (BE)
//	record:  uvarint(zigzag(time delta ns)) | src u32 | dst u32 |
//	         srcPort u16 | dstPort u16 | seq u32 | ack u32 | ipid u16 |
//	         ttl u8 | flags u8 | window u16 | proto u8   (all BE)
//
// Records are header-only: application payload bytes (the phase-two
// pushes a reactive telescope elicits) are not stored — the fixed record
// body has no room for them. Reactive captures that must preserve
// payloads for replay belong in pcap/pcapng, whose frames carry them.
package flowlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/synscan/synscan/internal/packet"
)

// Magic identifies a flowlog stream.
var Magic = [4]byte{'S', 'Y', 'N', 'L'}

const (
	version       = 1
	headerLen     = 10
	recordBodyLen = 27
	maxRecordLen  = binary.MaxVarintLen64 + recordBodyLen
)

// Errors.
var (
	ErrBadMagic   = errors.New("flowlog: bad magic")
	ErrBadVersion = errors.New("flowlog: unsupported version")
)

var errOverflow = errors.New("varint overflows 64 bits")

// Writer appends probes to a spool.
type Writer struct {
	w    *bufio.Writer
	last int64
	buf  [binary.MaxVarintLen64 + recordBodyLen]byte
	err  error
}

// NewWriter writes the header and returns a spool writer. telescopeSize is
// recorded so analyzers can extrapolate without out-of-band knowledge.
func NewWriter(w io.Writer, telescopeSize int) (*Writer, error) {
	var hdr [headerLen]byte
	copy(hdr[:4], Magic[:])
	hdr[4] = version
	binary.BigEndian.PutUint32(hdr[6:10], uint32(telescopeSize))
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// zigzag maps signed deltas to unsigned varint-friendly values.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Write appends one probe. Records may carry any timestamps, but streams
// written in time order compress best.
func (w *Writer) Write(p *packet.Probe) error {
	if w.err != nil {
		return w.err
	}
	n := binary.PutUvarint(w.buf[:], zigzag(p.Time-w.last))
	w.last = p.Time
	b := w.buf[n : n+recordBodyLen]
	binary.BigEndian.PutUint32(b[0:4], p.Src)
	binary.BigEndian.PutUint32(b[4:8], p.Dst)
	binary.BigEndian.PutUint16(b[8:10], p.SrcPort)
	binary.BigEndian.PutUint16(b[10:12], p.DstPort)
	binary.BigEndian.PutUint32(b[12:16], p.Seq)
	binary.BigEndian.PutUint32(b[16:20], p.Ack)
	binary.BigEndian.PutUint16(b[20:22], p.IPID)
	b[22] = p.TTL
	b[23] = p.Flags
	binary.BigEndian.PutUint16(b[24:26], p.Window)
	b[26] = p.Proto
	if _, err := w.w.Write(w.buf[:n+recordBodyLen]); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Flush flushes buffered records.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader reads a spool.
type Reader struct {
	r       *bufio.Reader
	last    int64
	telSize int
}

// NewReader validates the header and returns a spool reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("flowlog: header: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	if [4]byte(hdr[:4]) != Magic {
		return nil, ErrBadMagic
	}
	if hdr[4] != version {
		return nil, ErrBadVersion
	}
	return &Reader{r: br, telSize: int(binary.BigEndian.Uint32(hdr[6:10]))}, nil
}

// TelescopeSize returns the monitored-address count recorded in the header.
func (r *Reader) TelescopeSize() int { return r.telSize }

// Next decodes the next record into p. It returns io.EOF at a clean end of
// stream; a record cut off anywhere — even inside the leading timestamp
// varint — surfaces io.ErrUnexpectedEOF, and any other failure of the
// underlying reader that reader's error.
func (r *Reader) Next(p *packet.Probe) error {
	buf, peekErr := r.r.Peek(maxRecordLen)
	if len(buf) == 0 {
		if peekErr == nil || peekErr == io.EOF {
			return io.EOF
		}
		return peekErr
	}
	delta, n := binary.Uvarint(buf)
	if n < 0 {
		return fmt.Errorf("flowlog: timestamp: %w", errOverflow)
	}
	if n == 0 || len(buf) < n+recordBodyLen {
		// Fewer bytes remain than one record needs.
		if peekErr != nil && peekErr != io.EOF {
			return fmt.Errorf("flowlog: %w", peekErr)
		}
		if n == 0 {
			return fmt.Errorf("flowlog: truncated timestamp: %w", io.ErrUnexpectedEOF)
		}
		return fmt.Errorf("flowlog: truncated record: %w", io.ErrUnexpectedEOF)
	}
	b := buf[n : n+recordBodyLen]
	r.last += unzigzag(delta)
	p.Time = r.last
	p.Src = binary.BigEndian.Uint32(b[0:4])
	p.Dst = binary.BigEndian.Uint32(b[4:8])
	p.SrcPort = binary.BigEndian.Uint16(b[8:10])
	p.DstPort = binary.BigEndian.Uint16(b[10:12])
	p.Seq = binary.BigEndian.Uint32(b[12:16])
	p.Ack = binary.BigEndian.Uint32(b[16:20])
	p.IPID = binary.BigEndian.Uint16(b[20:22])
	p.TTL = b[22]
	p.Flags = b[23]
	p.Window = binary.BigEndian.Uint16(b[24:26])
	p.Proto = b[26]
	_, err := r.r.Discard(n + recordBodyLen) // buffered by the Peek: cannot fail
	return err
}
