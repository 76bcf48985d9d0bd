// Package archive is the pipeline's persistent campaign store. Every
// analysis in the paper (§4–§6) is a query over the set of detected
// campaigns — by year, tool, port set, rate, origin — yet detection is three
// orders of magnitude more expensive than any one query. The archive splits
// the two: the detector runs once and spools its campaigns into an on-disk
// file; queries then run forever against the file without touching raw
// packets.
//
// Format ("SYNA", version 4):
//
//	header:   magic "SYNA" | version u8 | flags u8 | telescopeSize u32 |
//	          reserved u16                                  (12 bytes, BE)
//	blocks:   back to back (offsets live in the index, not the stream), each
//	          a CRC-32 (IEEE) of the stored payload (u32 BE) followed by the
//	          payload: a strip directory, then the strips' DEFLATE streams,
//	          bounded to ~BlockBytes of inflated strips
//	index:    u32 block count, then one fixed 64-byte zone-map entry per
//	          block (see ZoneMap)
//	trailer:  index offset u64 | index length u32 | CRC-32 (IEEE) of the
//	          index | magic "SYNX"                          (20 bytes, BE)
//
// A block is column-major: it holds one strip per record part, each strip
// that part of every record of the block in record order, as a DEFLATE stream
// of its own. The directory is fourteen entries of stored length and
// inflated length (u32 BE each), one per strip, in this order; the streams
// follow in the same order, and an empty strip has no stream:
//
//	start     zigzag uvarint: start time less the previous record's (less
//	          zero for the block's first)
//	duration  uvarint: end time less start time
//	src       u32 BE
//	packets   uvarint
//	dsts      uvarint: distinct destinations
//	ports     uvarint count, then the ascending ports as uvarint deltas
//	tool      one byte: tool in the low six bits, the qualified flag on top
//	rate      float64 bits, u64 BE
//	coverage  float64 bits, u64 BE
//	phase     one byte (two-phase flag, ISN class), then linked destinations,
//	          handshake packets and payload bytes as uvarints — all zero for
//	          a passively captured scan
//	payload   uvarint length (zero for none), then the payload prefix
//	country   uvarint id in the block's country dictionary
//	asn       uvarint: the AS number shifted left eight, the scanner type in
//	          the low byte
//	org       uvarint id in the block's organization dictionary
//
// The two dictionaries are per block and sit in their strips: an id equal to
// the number of entries defined so far is followed by the entry it defines —
// a length-prefixed country code; a zigzag uvarint organization id and a
// length-prefixed name — so a string is stored once per block and a strip
// still decodes in one pass with nothing but itself. The last three strips are
// empty unless the header's flags bit 0 says scans carry their enrichment
// Origin: the simulation path archives origins (it owns the registry), the
// replay path does not.
//
// A strip's stream is any valid DEFLATE stream (RFC 1951) that inflates to
// the strip; a reader asks no more of it. The Writer keeps the stream
// compress/flate makes of a strip only when it is at least an eighth shorter
// than the strip, and otherwise writes the strip as stored blocks (BTYPE 00,
// at most 65 535 bytes each), which a reader copies instead of decoding: a
// strip near its entropy — start times to the nanosecond, sources spread over
// the address space — is the literal-only worst case of inflate, and cost a
// time-bounded query more to inflate than the rest of what it read together,
// to save a twentieth of its bytes. So a strip is stored at no more than an
// eighth of it, plus five bytes per 65 535, above its smallest encoding.
//
// Strips are what a query pays for: a Reader inflates and parses only those
// its Predicate names (see Fields), so an aggregate over one attribute of a
// decade reads that attribute's strip of each block and nothing else of it,
// and the strips a query leaves out are never looked at — not inflated, not
// parsed, not checked beyond the block's CRC. Values are delta/varint encoded
// within a strip, so the DEFLATE layer mostly squeezes structural redundancy
// rather than numeric width. Each block's zone map carries min/max start
// time, min/max year, a tool bitmap, a 64-bit port-set fingerprint and the
// source-address range, letting a Reader prove "no scan in this block can
// match" and skip the block without reading it (predicate pushdown; see
// Predicate).
//
// This is the one format read and written, and every archive is regenerable
// from seeds, so a file of an earlier version (1–3: row-major blocks) is
// refused at open with ErrBadVersion and the commands that re-create it. The
// per-block checksum covers the whole stored payload, directory included, and
// is what makes degraded-mode reads possible: a skip-corrupt reader (a segment of
// a store opened with CatalogConfig.SkipCorrupt) verifies each block before inflating any of it and skips damaged blocks
// (counting them in the faults.archive.corrupt_blocks metric and
// Reader.CorruptBlocks) instead of failing the whole query, so one flipped
// bit in a decade-long archive costs one block of results, not the file. It
// is also what lets the compactor move a full block from one file to another
// without inflating it.
package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/synscan/synscan/internal/core"
)

// Magic identifies an archive file; TrailerMagic closes it.
var (
	Magic        = [4]byte{'S', 'Y', 'N', 'A'}
	TrailerMagic = [4]byte{'S', 'Y', 'N', 'X'}
)

const (
	version     = 4 // a block is a directory and one DEFLATE stream per strip
	headerLen   = 12
	trailerLen  = 20
	zoneMapLen  = 64
	blockCRCLen = 4

	flagOrigins = 1 << 0

	// DefaultBlockBytes bounds a block's inflated strips. 256 KiB keeps
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
	// Offset locates the block's CRC word in the file; CompressedLen is the
	// length of the stored payload after it.
	Offset        uint64
	CompressedLen uint32
	// RawLen is the summed length of the block's strips, inflated.
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

// header builds the 12-byte file header.
func header(telescopeSize int, origins bool) ([]byte, error) {
	if telescopeSize < 0 || telescopeSize > math.MaxUint32 {
		return nil, fmt.Errorf("archive: telescope size %d out of range", telescopeSize)
	}
	h := make([]byte, headerLen)
	copy(h[:4], Magic[:])
	h[4] = version
	if origins {
		h[5] = flagOrigins
	}
	binary.BigEndian.PutUint32(h[6:10], uint32(telescopeSize))
	return h, nil
}
