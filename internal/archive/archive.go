// Package archive is the pipeline's persistent campaign store. Every
// analysis in the paper (§4–§6) is a query over the set of detected
// campaigns — by year, tool, port set, rate, origin — yet detection is three
// orders of magnitude more expensive than any one query. The archive splits
// the two: the detector runs once and spools its campaigns into an on-disk
// file; queries then run forever against the file without touching raw
// packets.
//
// Format ("SYNA", version 3):
//
//	header:   magic "SYNA" | version u8 | flags u8 | telescopeSize u32 |
//	          reserved u16                                  (12 bytes, BE)
//	blocks:   back-to-back checksummed DEFLATE streams of scan records
//	          (offsets live in the index, not the stream): each block is a
//	          CRC-32 (IEEE) of the compressed payload (u32 BE) followed by
//	          the DEFLATE stream, bounded to ~BlockBytes of uncompressed
//	          payload
//	index:    u32 block count, then one fixed 64-byte zone-map entry per
//	          block (see ZoneMap)
//	trailer:  index offset u64 | index length u32 | CRC-32 (IEEE) of the
//	          index | magic "SYNX"                          (20 bytes, BE)
//
// This is the one format read and written: every writer here has produced it
// since the reactive telescope, and every archive is regenerable from seeds,
// so a file of version 1 (no block checksums) or 2 (no phase suffix) is
// refused at open with ErrBadVersion and the commands that re-create it. The
// per-block checksum is what makes degraded-mode reads possible: a reader
// opened WithSkipCorrupt verifies each block before decompressing it and
// skips damaged blocks (counting them in the faults.archive.corrupt_blocks
// metric and Reader.CorruptBlocks) instead of failing the whole query, so
// one flipped bit in a decade-long archive costs one block of results, not
// the file.
//
// Records are delta/varint encoded within a block (start-time deltas between
// consecutive records, ascending port-list deltas, varint counters), so the
// DEFLATE layer mostly squeezes structural redundancy rather than numeric
// width. Each block's zone map carries min/max start time, min/max year,
// a tool bitmap, a 64-bit port-set fingerprint and the source-address range,
// letting a Reader prove "no scan in this block can match" and skip the
// block without decompressing it (predicate pushdown; see Predicate).
//
// The flags bit 0 records whether scans carry their enrichment Origin: the
// simulation path archives origins (it owns the registry), the replay path
// does not. Bit 1 (always set) marks the phase suffix of each record: the
// two-phase flag, ISN class, linked-destination, handshake-packet and payload
// counters and the payload prefix, all zero for a passively captured scan.
package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/fingerprint"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/tools"
)

// Magic identifies an archive file; TrailerMagic closes it.
var (
	Magic        = [4]byte{'S', 'Y', 'N', 'A'}
	TrailerMagic = [4]byte{'S', 'Y', 'N', 'X'}
)

const (
	version     = 3 // checksummed blocks; records carry the phase suffix (flagPhases)
	headerLen   = 12
	trailerLen  = 20
	zoneMapLen  = 64
	blockCRCLen = 4

	flagOrigins = 1 << 0
	// flagPhases records that each record carries the reactive-telescope
	// phase suffix (TwoPhase flag, ISN class, linked-destination and
	// handshake-packet counters, payload bytes and prefix). Every version-3
	// file has it.
	flagPhases = 1 << 1

	// DefaultBlockBytes bounds a block's uncompressed payload. 256 KiB keeps
	// blocks large enough for DEFLATE to find structure and small enough
	// that zone-map pruning has real resolution (a decade at default scale
	// spans dozens of blocks).
	DefaultBlockBytes = 256 << 10
)

// Errors surfaced by the codec.
var (
	ErrBadMagic   = errors.New("archive: bad magic")
	ErrBadVersion = errors.New("archive: unsupported version")
	ErrCorrupt    = errors.New("archive: corrupt file")
	ErrNoOrigins  = errors.New("archive: file carries no origins")
)

// ZoneMap summarizes one block for predicate pushdown: a query whose
// predicate provably excludes every value range below can skip the block
// without decompressing it.
type ZoneMap struct {
	// Offset and CompressedLen locate the DEFLATE stream in the file.
	Offset        uint64
	CompressedLen uint32
	// RawLen is the uncompressed payload length.
	RawLen uint32
	// Scans counts records in the block; Qualified counts those over the
	// campaign thresholds.
	Scans     uint32
	Qualified uint32
	// MinStart and MaxStart bound the records' start times (ns).
	MinStart, MaxStart int64
	// MinSrc and MaxSrc bound the records' source addresses.
	MinSrc, MaxSrc uint32
	// ToolBits has bit t set when some record is attributed to Tool(t).
	ToolBits uint16
	// MinYear and MaxYear bound the records' start-time years (UTC).
	MinYear, MaxYear uint16
	// PortsFP is a 64-bit Bloom fingerprint of every port targeted in the
	// block (see portBit): a port whose bit is clear is provably absent.
	PortsFP uint64
	// TwoPhase counts records with the two-phase flag set, saturating at
	// 65535 (a block never holds that many records in practice).
	TwoPhase uint16
}

// portBit maps a port to its fingerprint bit: the top six bits of a
// Knuth-multiplicative hash, so dense low port ranges spread over the word.
func portBit(p uint16) uint64 {
	return 1 << (uint32(p) * 2654435761 >> 26)
}

// MayContainPort reports whether the block's port fingerprint admits p.
// False proves no record in the block targets p; true is conservative
// (Bloom collisions). External predicate implementations use this to build
// port pushdown without access to the fingerprint hash.
func (z *ZoneMap) MayContainPort(p uint16) bool {
	return z.PortsFP&portBit(p) != 0
}

// YearOf returns the UTC calendar year of a nanosecond timestamp: the year a
// scan's start time is filed, filtered and grouped under.
func YearOf(ns int64) int {
	return time.Unix(0, ns).UTC().Year()
}

// YearCache memoizes one calendar year's nanosecond boundaries so a
// per-record year lookup — the writer's zone maps, the query executor's year
// grouping — is a two-comparison range check instead of a time.Unix
// breakdown. Consecutive records overwhelmingly share a year (a block spans
// minutes of record time; years change once per ~31.5M seconds), so the slow
// path runs a handful of times per archive. The zero value is ready. Not safe
// for concurrent use — each Writer and each query Executor owns one.
type YearCache struct {
	lo, hi int64 // [lo, hi) bounds the cached year; hi == 0 means empty
	y      uint16
}

// Year returns uint16(YearOf(ns)), consulting the cached boundaries first.
func (c *YearCache) Year(ns int64) uint16 {
	if c.hi != 0 && ns >= c.lo && ns < c.hi {
		return c.y
	}
	y := YearOf(ns)
	// Years whose full [Jan 1, next Jan 1) span fits in int64 nanoseconds
	// are cacheable; the extremes (outside 1678–2261) fall back to the
	// direct computation every time, which only synthetic inputs hit.
	if y > 1678 && y < 2261 {
		c.lo = time.Date(y, time.January, 1, 0, 0, 0, 0, time.UTC).UnixNano()
		c.hi = time.Date(y+1, time.January, 1, 0, 0, 0, 0, time.UTC).UnixNano()
		c.y = uint16(y)
	} else {
		c.hi = 0
	}
	return uint16(y)
}

// reset clears z to the open state for a new block.
func (z *ZoneMap) reset() {
	*z = ZoneMap{
		MinStart: math.MaxInt64, MaxStart: math.MinInt64,
		MinSrc: math.MaxUint32, MaxSrc: 0,
		MinYear: math.MaxUint16, MaxYear: 0,
	}
}

// observe folds one record into the zone map. y must be the record's UTC
// start year (the caller's YearCache supplies it without a per-record
// time.Unix breakdown — this is the ingest hot path).
func (z *ZoneMap) observe(sc *core.Scan, y uint16) {
	z.Scans++
	if sc.Qualified {
		z.Qualified++
	}
	if sc.Start < z.MinStart {
		z.MinStart = sc.Start
	}
	if sc.Start > z.MaxStart {
		z.MaxStart = sc.Start
	}
	if sc.Src < z.MinSrc {
		z.MinSrc = sc.Src
	}
	if sc.Src > z.MaxSrc {
		z.MaxSrc = sc.Src
	}
	if y < z.MinYear {
		z.MinYear = y
	}
	if y > z.MaxYear {
		z.MaxYear = y
	}
	z.ToolBits |= 1 << uint(sc.Tool)
	if sc.TwoPhase && z.TwoPhase < math.MaxUint16 {
		z.TwoPhase++
	}
	for _, p := range sc.Ports {
		z.PortsFP |= portBit(p)
	}
}

// marshal appends the fixed-width index entry.
func (z *ZoneMap) marshal(b []byte) []byte {
	var e [zoneMapLen]byte
	binary.BigEndian.PutUint64(e[0:8], z.Offset)
	binary.BigEndian.PutUint32(e[8:12], z.CompressedLen)
	binary.BigEndian.PutUint32(e[12:16], z.RawLen)
	binary.BigEndian.PutUint32(e[16:20], z.Scans)
	binary.BigEndian.PutUint32(e[20:24], z.Qualified)
	binary.BigEndian.PutUint64(e[24:32], uint64(z.MinStart))
	binary.BigEndian.PutUint64(e[32:40], uint64(z.MaxStart))
	binary.BigEndian.PutUint32(e[40:44], z.MinSrc)
	binary.BigEndian.PutUint32(e[44:48], z.MaxSrc)
	binary.BigEndian.PutUint16(e[48:50], z.ToolBits)
	binary.BigEndian.PutUint16(e[50:52], z.MinYear)
	binary.BigEndian.PutUint16(e[52:54], z.MaxYear)
	binary.BigEndian.PutUint64(e[54:62], z.PortsFP)
	binary.BigEndian.PutUint16(e[62:64], z.TwoPhase)
	return append(b, e[:]...)
}

// unmarshalZoneMap decodes one fixed-width index entry.
func unmarshalZoneMap(e []byte) ZoneMap {
	return ZoneMap{
		Offset:        binary.BigEndian.Uint64(e[0:8]),
		CompressedLen: binary.BigEndian.Uint32(e[8:12]),
		RawLen:        binary.BigEndian.Uint32(e[12:16]),
		Scans:         binary.BigEndian.Uint32(e[16:20]),
		Qualified:     binary.BigEndian.Uint32(e[20:24]),
		MinStart:      int64(binary.BigEndian.Uint64(e[24:32])),
		MaxStart:      int64(binary.BigEndian.Uint64(e[32:40])),
		MinSrc:        binary.BigEndian.Uint32(e[40:44]),
		MaxSrc:        binary.BigEndian.Uint32(e[44:48]),
		ToolBits:      binary.BigEndian.Uint16(e[48:50]),
		MinYear:       binary.BigEndian.Uint16(e[50:52]),
		MaxYear:       binary.BigEndian.Uint16(e[52:54]),
		PortsFP:       binary.BigEndian.Uint64(e[54:62]),
		TwoPhase:      binary.BigEndian.Uint16(e[62:64]),
	}
}

// appendRecord delta/varint encodes one scan (and optionally its origin)
// onto b. prevStart is the previous record's start time within the block
// (zero for the first record).
func appendRecord(b []byte, sc *core.Scan, o *enrich.Origin, prevStart int64) []byte {
	b = binary.AppendUvarint(b, zigzag(sc.Start-prevStart))
	b = binary.AppendUvarint(b, uint64(sc.End-sc.Start))
	b = binary.BigEndian.AppendUint32(b, sc.Src)
	b = binary.AppendUvarint(b, sc.Packets)
	b = binary.AppendUvarint(b, uint64(sc.DistinctDsts))
	b = binary.AppendUvarint(b, uint64(len(sc.Ports)))
	prev := uint16(0)
	for i, p := range sc.Ports {
		if i == 0 {
			b = binary.AppendUvarint(b, uint64(p))
		} else {
			b = binary.AppendUvarint(b, uint64(p-prev))
		}
		prev = p
	}
	tq := byte(sc.Tool) & 0x3f
	if sc.Qualified {
		tq |= 0x80
	}
	b = append(b, tq)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(sc.RatePPS))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(sc.Coverage))
	// Phase suffix (flagPhases): flag byte, then the counters that are
	// usually zero for passive captures — a varint-friendly layout.
	ph := byte(sc.ISN) << 1 & 0x06
	if sc.TwoPhase {
		ph |= 0x01
	}
	if len(sc.Payload) > 0 {
		ph |= 0x08
	}
	b = append(b, ph)
	b = binary.AppendUvarint(b, uint64(sc.LinkedDsts))
	b = binary.AppendUvarint(b, sc.HandshakePackets)
	b = binary.AppendUvarint(b, sc.PayloadBytes)
	if len(sc.Payload) > 0 {
		b = append(b, byte(len(sc.Payload)))
		b = append(b, sc.Payload...)
	}
	if o != nil {
		b = appendString(b, o.Country)
		b = binary.AppendUvarint(b, uint64(o.ASN))
		b = append(b, byte(o.Type))
		b = binary.AppendUvarint(b, zigzag(int64(o.OrgID)))
		b = appendString(b, o.OrgName)
	}
	return b
}

// recordDecoder is what decodeRecord needs beyond the record's bytes: the
// file's record layout, where kept ports and payload go and which of them the
// query reads (sl), and the string table (in).
type recordDecoder struct {
	origins bool
	sl      *slabs
	in      *interner
}

// decodeRecord is the inverse of appendRecord. It decodes the record at
// b[i:] into sc and, when o is non-nil, its origin into o, returning the
// index of the next record and this record's start time for the next delta.
// Every byte is parsed and checked whatever d.sl.fields says; parts outside
// it are just not stored. Ports and payload are lent from the arenas: the
// caller commits them (arena.keep) if it keeps the record.
func (d *recordDecoder) decodeRecord(b []byte, i int, sc *core.Scan, o *enrich.Origin, prevStart int64) (int, int64, error) {
	*sc = core.Scan{}
	delta, i := uvarint(b, i)
	durU, i := uvarint(b, i)
	if i < 0 || len(b)-i < 4 {
		return 0, 0, ErrCorrupt
	}
	sc.Start = prevStart + unzigzag(delta)
	sc.End = sc.Start + int64(durU)
	sc.Src = binary.BigEndian.Uint32(b[i:])
	i += 4
	sc.Packets, i = uvarint(b, i)
	dsts, i := uvarint(b, i)
	nPorts, i := uvarint(b, i)
	if i < 0 || dsts > math.MaxInt32 || nPorts > 65536 {
		return 0, 0, ErrCorrupt
	}
	sc.DistinctDsts = int(dsts)
	keepPorts := d.sl.fields&FieldPorts != 0
	if keepPorts {
		sc.Ports = d.sl.ports.take(int(nPorts))
	}
	var port uint64
	for p := 0; p < int(nPorts); p++ {
		var delta uint64
		if i < len(b) && b[i] < 0x80 { // nearly every port delta is one byte
			delta = uint64(b[i])
			i++
		} else if delta, i = uvarint(b, i); i < 0 {
			return 0, 0, ErrCorrupt
		}
		if p == 0 {
			port = delta
		} else {
			port += delta
		}
		if port > math.MaxUint16 {
			return 0, 0, ErrCorrupt
		}
		if keepPorts {
			sc.Ports[p] = uint16(port)
		}
	}
	if len(b)-i < 1+8+8 {
		return 0, 0, ErrCorrupt
	}
	sc.Tool = tools.Tool(b[i] & 0x3f)
	sc.Qualified = b[i]&0x80 != 0
	sc.RatePPS = math.Float64frombits(binary.BigEndian.Uint64(b[i+1:]))
	sc.Coverage = math.Float64frombits(binary.BigEndian.Uint64(b[i+9:]))
	i += 17
	if i >= len(b) {
		return 0, 0, ErrCorrupt
	}
	ph := b[i]
	i++
	sc.TwoPhase = ph&0x01 != 0
	sc.ISN = fingerprint.ISNClass(ph >> 1 & 0x03)
	var linked uint64
	linked, i = uvarint(b, i)
	sc.HandshakePackets, i = uvarint(b, i)
	sc.PayloadBytes, i = uvarint(b, i)
	if i < 0 || linked > math.MaxInt32 || sc.HandshakePackets > sc.Packets {
		return 0, 0, ErrCorrupt
	}
	sc.LinkedDsts = int(linked)
	sc.ScoutPackets = sc.Packets - sc.HandshakePackets
	if ph&0x08 != 0 {
		if i >= len(b) {
			return 0, 0, ErrCorrupt
		}
		n := int(b[i])
		i++
		if n == 0 || n > len(b)-i {
			return 0, 0, ErrCorrupt
		}
		if d.sl.fields&FieldPayload != 0 {
			sc.Payload = d.sl.payload.take(n)
			copy(sc.Payload, b[i:])
		}
		i += n
	}
	if d.origins {
		var country, org []byte
		var asn, orgID uint64
		country, i = lenPrefixed(b, i)
		asn, i = uvarint(b, i)
		if i < 0 || i >= len(b) || asn > math.MaxUint32 {
			return 0, 0, ErrCorrupt
		}
		typ := inetmodel.ScannerType(b[i])
		orgID, i = uvarint(b, i+1)
		id := unzigzag(orgID)
		org, i = lenPrefixed(b, i)
		if i < 0 || id < math.MinInt16 || id > math.MaxInt16 {
			return 0, 0, ErrCorrupt
		}
		if o != nil {
			*o = enrich.Origin{
				Country: d.in.intern(country), ASN: uint32(asn), Type: typ,
				OrgID: int16(id), OrgName: d.in.intern(org),
			}
		}
	}
	return i, sc.Start, nil
}

// zigzag maps signed values to unsigned varint-friendly ones.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarint reads one uvarint at b[i:] and returns it with the index after it.
// A negative index — passed in or returned — means the input was malformed
// (more than ten bytes, or a tenth byte above 1: binary.Uvarint's overflow
// rule) or ran out; it is sticky, so a run of reads needs one check at its
// end. It works on the index rather than re-slicing b, which is most of its
// edge over binary.Uvarint on this path's one- to five-byte values.
func uvarint(b []byte, i int) (uint64, int) {
	if uint(i) >= uint(len(b)) { // also a negative i
		return 0, -1
	}
	c := b[i]
	if c < 0x80 {
		return uint64(c), i + 1
	}
	v := uint64(c & 0x7f)
	for shift := uint(7); shift < 64; shift += 7 {
		i++
		if i >= len(b) {
			return 0, -1
		}
		c = b[i]
		if c < 0x80 {
			if shift == 63 && c > 1 {
				return 0, -1
			}
			return v | uint64(c)<<shift, i + 1
		}
		v |= uint64(c&0x7f) << shift
	}
	return 0, -1
}

// appendString appends a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// lenPrefixed reads one uvarint-length-prefixed string at b[i:], as a view of
// b, with uvarint's index convention.
func lenPrefixed(b []byte, i int) ([]byte, int) {
	n, i := uvarint(b, i)
	if i < 0 || n > uint64(len(b)-i) {
		return nil, -1
	}
	return b[i : i+int(n)], i + int(n)
}

// header builds the 12-byte file header.
func header(telescopeSize int, origins bool) ([]byte, error) {
	if telescopeSize < 0 || telescopeSize > math.MaxUint32 {
		return nil, fmt.Errorf("archive: telescope size %d out of range", telescopeSize)
	}
	h := make([]byte, headerLen)
	copy(h[:4], Magic[:])
	h[4] = version
	h[5] = flagPhases
	if origins {
		h[5] |= flagOrigins
	}
	binary.BigEndian.PutUint32(h[6:10], uint32(telescopeSize))
	return h, nil
}
