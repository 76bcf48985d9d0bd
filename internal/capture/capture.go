// Package capture is the ingest library: the one front over the capture
// formats a telescope stream can arrive in — classic pcap, pcapng and the
// compact flowlog spool — and the one replay loop that feeds such a stream to
// a campaign detector. It is the only importer of internal/pcap,
// internal/pcapng and internal/flowlog and the only owner of a
// packet.Decoder outside the simulator; synalyze, syningest and syntelescope
// are flag wiring around Open, NewWriter and Replay.
package capture

import (
	"bufio"
	"fmt"
	"io"

	"github.com/synscan/synscan/internal/flowlog"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/pcap"
	"github.com/synscan/synscan/internal/pcapng"
)

// Format names a capture format.
type Format string

const (
	Pcap   Format = "pcap"
	Pcapng Format = "pcapng"
	Spool  Format = "spool" // flowlog: header-only records, telescope size in the header
)

// ParseFormat validates a format name as the commands' -format flag spells it.
func ParseFormat(s string) (Format, error) {
	switch f := Format(s); f {
	case Pcap, Pcapng, Spool:
		return f, nil
	}
	return "", fmt.Errorf("unknown format %q (want pcap, pcapng or spool)", s)
}

// Reader reads probes from a capture stream of any format. Not safe for
// concurrent use.
type Reader struct {
	format Format
	pcap   *pcap.Reader
	ng     *pcapng.Reader
	spool  *flowlog.Reader

	dec       packet.Decoder
	records   uint64 // read so far: the zero-based index of the next one
	truncated uint64
}

// Open sniffs the stream's magic — "SYNL" is a spool, 0x0A0D0D0A a pcapng
// section, anything else is handed to the classic pcap reader, whose own
// magic check rejects garbage — and reads the format's header. A pcap whose
// link type is not Ethernet is an error here (pcapng states it per
// interface, so Next checks it there): the decoder reads Ethernet frames
// only, and decoding anything else as one would drop every record as
// unparsed and report an empty capture.
func Open(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16) // the format readers reuse a bufio.Reader this large
	// A stream shorter than a magic is not a spool or a pcapng; the pcap
	// reader names what is wrong with it.
	magic, _ := br.Peek(4)
	rd := &Reader{}
	var err error
	switch string(magic) {
	case string(flowlog.Magic[:]):
		rd.format = Spool
		rd.spool, err = flowlog.NewReader(br)
	case string(pcapng.Magic[:]):
		rd.format = Pcapng
		rd.ng, err = pcapng.NewReader(br)
	default:
		rd.format = Pcap
		if rd.pcap, err = pcap.NewReader(br); err == nil && rd.pcap.LinkType() != pcap.LinkTypeEthernet {
			err = fmt.Errorf("capture: %w", linkTypeError("pcap file", rd.pcap.LinkType()))
		}
	}
	if err != nil {
		return nil, err
	}
	return rd, nil
}

func linkTypeError(what string, linkType uint32) error {
	return fmt.Errorf("%s has link type %d; only Ethernet (%d) is decoded",
		what, linkType, pcap.LinkTypeEthernet)
}

// Format returns the format Open detected.
func (r *Reader) Format() Format { return r.format }

// TelescopeSize returns the monitored-address count the capture's header
// records, or 0 when the format carries none (only spools do).
func (r *Reader) TelescopeSize() int {
	if r.spool == nil {
		return 0
	}
	return r.spool.TelescopeSize()
}

// Truncated returns how many records so far were cut to the capture's snap
// length (stored bytes < bytes on the wire). Spool records are never cut.
func (r *Reader) Truncated() uint64 { return r.truncated }

// Next reads the capture's next record into p. decoded is false for a frame
// that does not parse as a probe (p's contents are then unspecified); err is
// io.EOF at a clean end of stream. One Decoder serves the whole stream and
// decoding reuses p's Payload backing, so a loop over Next with one Probe
// runs allocation-free (alloctest budget `capture-next`); whoever keeps a
// probe past the next call must copy it, as the detectors do. Any other error
// names the format and the zero-based index of the record it stopped at, once
// for all three codecs, and wraps the codec's own (io.ErrUnexpectedEOF for a
// cut record, pcapng.ErrCorrupted, the underlying reader's).
func (r *Reader) Next(p *packet.Probe) (decoded bool, err error) {
	decoded, err = r.next(p)
	switch err {
	case nil:
		r.records++
	case io.EOF:
	default:
		err = fmt.Errorf("capture: %s record %d: %w", r.format, r.records, err)
	}
	return decoded, err
}

func (r *Reader) next(p *packet.Probe) (decoded bool, err error) {
	var (
		ts    int64
		frame []byte
		cut   bool
	)
	switch {
	case r.spool != nil:
		err = r.spool.Next(p)
		return err == nil, err
	case r.ng != nil:
		var id int
		if ts, frame, id, err = r.ng.Next(); err != nil {
			return false, err
		}
		// Interfaces come and go with sections, so the packet's own
		// interface is looked up each time.
		if lt := uint32(r.ng.LinkType(id)); lt != pcap.LinkTypeEthernet {
			return false, linkTypeError(fmt.Sprintf("interface %d", id), lt)
		}
		cut = r.ng.Truncated()
	default:
		rec, err := r.pcap.Next()
		if err != nil {
			return false, err
		}
		ts, frame, cut = rec.Time, rec.Data, rec.Truncated()
	}
	if cut {
		r.truncated++
	}
	if r.dec.Decode(frame, p) != nil {
		return false, nil
	}
	p.Time = ts
	return true, nil
}

// Writer writes probes to a capture stream in one format: full
// Ethernet+IPv4+transport frames with valid checksums and nanosecond
// timestamps for pcap and pcapng, the header-only flowlog record for a spool.
type Writer struct {
	spool  *flowlog.Writer
	frames interface { // *pcap.Writer or *pcapng.Writer
		WritePacket(tsNanos int64, data []byte) error
		Flush() error
	}
	frame []byte
}

// NewWriter writes the format's header to w. telescopeSize is recorded where
// the format has room for it (the spool header).
func NewWriter(w io.Writer, format Format, telescopeSize int) (*Writer, error) {
	cw := &Writer{frame: make([]byte, 0, packet.FrameLen)}
	var err error
	switch format {
	case Pcap:
		cw.frames, err = pcap.NewWriter(w)
	case Pcapng:
		cw.frames, err = pcapng.NewWriter(w, uint16(pcap.LinkTypeEthernet))
	case Spool:
		cw.spool, err = flowlog.NewWriter(w, telescopeSize)
	default:
		_, err = ParseFormat(string(format))
	}
	if err != nil {
		return nil, err
	}
	return cw, nil
}

// Write appends one probe.
func (w *Writer) Write(p *packet.Probe) error {
	if w.spool != nil {
		return w.spool.Write(p)
	}
	w.frame = p.AppendFrame(w.frame[:0])
	return w.frames.WritePacket(p.Time, w.frame)
}

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error {
	if w.spool != nil {
		return w.spool.Flush()
	}
	return w.frames.Flush()
}
