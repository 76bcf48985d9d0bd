// Package pcapng reads and writes the pcapng capture format (the Wireshark
// default), so internal/capture accepts modern captures alongside classic
// pcap and flowlog spools.
//
// Supported blocks: Section Header (endianness detection, per-section),
// Interface Description (link type, if_tsresol option), Enhanced Packet and
// Simple Packet. All other block types are skipped, as the spec prescribes
// for unknown blocks.
package pcapng

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Block type codes.
const (
	blockSectionHeader uint32 = 0x0A0D0D0A
	blockInterfaceDesc uint32 = 0x00000001
	blockSimplePacket  uint32 = 0x00000003
	blockEnhancedPkt   uint32 = 0x00000006

	byteOrderMagic uint32 = 0x1A2B3C4D
)

// Magic is the first four bytes of any pcapng stream (the SHB type code,
// endianness-independent).
var Magic = [4]byte{0x0A, 0x0D, 0x0D, 0x0A}

// Errors.
var (
	ErrBadMagic  = errors.New("pcapng: not a pcapng stream")
	ErrCorrupted = errors.New("pcapng: corrupted block structure")
)

// iface is one Interface Description Block's decoded state.
type iface struct {
	linkType uint16
	// tsDivisor converts timestamp units to nanoseconds: ns = units * nsPerUnit.
	nsPerUnit uint64
}

// Reader reads packets from a pcapng stream.
type Reader struct {
	r      *bufio.Reader
	order  binary.ByteOrder
	ifaces []iface
	buf    []byte
	// frame holds a block's header, then its trailer, while nextBlock reads
	// them: a local array would escape through io.ReadFull and cost two
	// allocations per block.
	frame [8]byte
	seen  bool // a section header has been read
	// truncated: the packet Next last returned holds fewer bytes than were
	// on the wire.
	truncated bool
}

// NewReader validates that r starts with a Section Header Block and returns
// a packet reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(4)
	if err != nil {
		return nil, ErrBadMagic
	}
	if [4]byte(head) != Magic {
		return nil, ErrBadMagic
	}
	return &Reader{r: br}, nil
}

// Truncated reports whether the packet Next last returned was cut to the
// snap length: its block's original-length word exceeds the bytes stored —
// pcap.Record.Truncated for this format.
func (r *Reader) Truncated() bool { return r.truncated }

// LinkType returns the link type of interface id, or 0 if unknown.
func (r *Reader) LinkType(id int) uint16 {
	if id < 0 || id >= len(r.ifaces) {
		return 0
	}
	return r.ifaces[id].linkType
}

// Next returns the next packet's timestamp (ns), its data, and the capture
// interface id. The data slice is reused across calls. io.EOF signals a
// clean end of stream; structural damage is ErrCorrupted, a block cut off by
// the end of the stream io.ErrUnexpectedEOF.
func (r *Reader) Next() (tsNanos int64, data []byte, ifaceID int, err error) {
	for {
		body, typ, err := r.nextBlock()
		if err != nil {
			return 0, nil, 0, err
		}
		switch typ {
		case blockSectionHeader:
			if err := r.parseSection(body); err != nil {
				return 0, nil, 0, err
			}
		case blockInterfaceDesc:
			if err := r.parseInterface(body); err != nil {
				return 0, nil, 0, err
			}
		case blockEnhancedPkt:
			return r.parseEnhanced(body)
		case blockSimplePacket:
			if len(body) < 4 {
				return 0, nil, 0, ErrCorrupted
			}
			// A Simple Packet Block stores only the original length; the
			// body holds min(original, snap length) bytes of it.
			orig, n := r.order.Uint32(body[0:4]), len(body)-4
			r.truncated = orig > uint32(n)
			if !r.truncated {
				n = int(orig)
			}
			return 0, body[4 : 4+n], 0, nil
		default:
			// Skip unknown block types.
		}
	}
}

// readErr names the part of a block a read failed in. The stream ending
// inside a block is io.ErrUnexpectedEOF; any other failure of the underlying
// reader stays that reader's error.
func readErr(part string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("pcapng: block %s: %w", part, err)
}

// nextBlock reads one block's body (without type/length framing).
func (r *Reader) nextBlock() ([]byte, uint32, error) {
	hdr := r.frame[:]
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, readErr("header", err)
	}
	// The SHB's byte-order magic defines the section's endianness; the
	// block type code 0x0A0D0D0A is palindromic, so it reads correctly in
	// either order. Until a section is parsed, default to little endian
	// for the length and fix up inside parseSection.
	typeLE := binary.LittleEndian.Uint32(hdr[0:4])
	typeBE := binary.BigEndian.Uint32(hdr[0:4])
	var typ uint32
	order := r.order
	if typeLE == blockSectionHeader || typeBE == blockSectionHeader {
		typ = blockSectionHeader
		// Peek the byte-order magic to decide the section's endianness.
		bom, err := r.r.Peek(4)
		if err == io.EOF {
			return nil, 0, ErrCorrupted
		} else if err != nil {
			return nil, 0, readErr("byte-order magic", err)
		}
		if binary.LittleEndian.Uint32(bom) == byteOrderMagic {
			order = binary.LittleEndian
		} else if binary.BigEndian.Uint32(bom) == byteOrderMagic {
			order = binary.BigEndian
		} else {
			return nil, 0, ErrCorrupted
		}
		r.order = order
		r.seen = true
	} else {
		if !r.seen {
			return nil, 0, ErrBadMagic
		}
		typ = order.Uint32(hdr[0:4])
	}

	total := order.Uint32(hdr[4:8])
	if total < 12 || total%4 != 0 || total > 1<<24 {
		return nil, 0, ErrCorrupted
	}
	bodyLen := int(total) - 12
	if cap(r.buf) < bodyLen {
		r.buf = make([]byte, bodyLen)
	}
	r.buf = r.buf[:bodyLen]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return nil, 0, readErr("body", err)
	}
	trailer := r.frame[:4]
	if _, err := io.ReadFull(r.r, trailer); err != nil {
		return nil, 0, readErr("trailer", err)
	}
	if order.Uint32(trailer) != total {
		return nil, 0, ErrCorrupted
	}
	return r.buf, typ, nil
}

func (r *Reader) parseSection(body []byte) error {
	if len(body) < 12 {
		return ErrCorrupted
	}
	// A new section resets the interface list.
	r.ifaces = r.ifaces[:0]
	return nil
}

func (r *Reader) parseInterface(body []byte) error {
	if len(body) < 8 {
		return ErrCorrupted
	}
	ifc := iface{
		linkType:  r.order.Uint16(body[0:2]),
		nsPerUnit: 1000, // default resolution: microseconds
	}
	// Options start at offset 8 (after linktype, reserved, snaplen).
	opts := body[8:]
	for len(opts) >= 4 {
		code := r.order.Uint16(opts[0:2])
		olen := int(r.order.Uint16(opts[2:4]))
		padded := (olen + 3) &^ 3
		if len(opts) < 4+padded {
			break
		}
		val := opts[4 : 4+olen]
		if code == 0 { // opt_endofopt
			break
		}
		if code == 9 && olen >= 1 { // if_tsresol
			res := val[0]
			if res&0x80 == 0 {
				// Power of ten: units of 10^-res seconds.
				ns := uint64(1e9)
				for i := uint8(0); i < res && ns > 0; i++ {
					ns /= 10
				}
				if ns == 0 {
					ns = 1
				}
				ifc.nsPerUnit = ns
			} else {
				// Power of two: units of 2^-(res&0x7f) seconds.
				shift := res & 0x7f
				ns := uint64(1e9)
				for i := uint8(0); i < shift && ns > 1; i++ {
					ns /= 2
				}
				ifc.nsPerUnit = ns
			}
		}
		opts = opts[4+padded:]
	}
	r.ifaces = append(r.ifaces, ifc)
	return nil
}

func (r *Reader) parseEnhanced(body []byte) (int64, []byte, int, error) {
	if len(body) < 20 {
		return 0, nil, 0, ErrCorrupted
	}
	id := int(r.order.Uint32(body[0:4]))
	tsHigh := uint64(r.order.Uint32(body[4:8]))
	tsLow := uint64(r.order.Uint32(body[8:12]))
	capLen := int(r.order.Uint32(body[12:16]))
	if capLen < 0 || capLen > len(body)-20 {
		return 0, nil, 0, ErrCorrupted
	}
	nsPerUnit := uint64(1000)
	if id >= 0 && id < len(r.ifaces) {
		nsPerUnit = r.ifaces[id].nsPerUnit
	}
	ts := int64((tsHigh<<32 | tsLow) * nsPerUnit)
	r.truncated = r.order.Uint32(body[16:20]) > uint32(capLen)
	return ts, body[20 : 20+capLen], id, nil
}
