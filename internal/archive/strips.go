package archive

import (
	"encoding/binary"
	"math"
	"strings"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/fingerprint"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/tools"
)

// The strips of a block, in directory order: one per record part, each holding
// that part of every record of the block, in record order. See the package
// comment for what a record contributes to each.
const (
	stripStart = iota
	stripDuration
	stripSrc
	stripPackets
	stripDsts
	stripPorts
	stripTool
	stripRate
	stripCoverage
	stripPhase
	stripPayload
	stripCountry
	stripASN
	stripOrg
	numStrips
)

var stripNames = [numStrips]string{
	"start", "duration", "src", "packets", "dsts", "ports", "tool", "rate",
	"coverage", "phase", "payload", "country", "asn", "org",
}

// minRecordBytes is the least a record adds to the strips every archive
// carries: a byte in each, four for the source, eight each for rate and
// coverage, four in the phase strip.
const minRecordBytes = 31

// dirLen is the length of a block's strip directory: per strip, the stored
// (deflated) and the inflated length, u32 BE each.
const dirLen = numStrips * 8

// Fields is a set of strips: the record parts a decode inflates and
// materializes. A Predicate states the set its consumer reads
// (Predicate.Fields); a strip outside it is neither inflated nor parsed, and
// the scan fields it carries stay zero — Scan.Ports and Scan.Payload nil — as
// does the part of the origin it carries; emit receives a nil origin when no
// origin strip is in the set.
type Fields uint16

const (
	// FieldStart is Scan.Start.
	FieldStart Fields = 1 << stripStart
	// FieldDuration is what Scan.Duration reads: Scan.End is the slot's Start
	// plus the stored duration, so End itself needs FieldStart too.
	FieldDuration Fields = 1 << stripDuration
	// FieldSrc is Scan.Src.
	FieldSrc Fields = 1 << stripSrc
	// FieldPackets is Scan.Packets.
	FieldPackets Fields = 1 << stripPackets
	// FieldDsts is Scan.DistinctDsts.
	FieldDsts Fields = 1 << stripDsts
	// FieldPorts is Scan.Ports.
	FieldPorts Fields = 1 << stripPorts
	// FieldTool is Scan.Tool and Scan.Qualified.
	FieldTool Fields = 1 << stripTool
	// FieldRate is Scan.RatePPS.
	FieldRate Fields = 1 << stripRate
	// FieldCoverage is Scan.Coverage.
	FieldCoverage Fields = 1 << stripCoverage
	// FieldPhase is the reactive-telescope part: Scan.TwoPhase, ISN,
	// LinkedDsts, HandshakePackets and PayloadBytes. Scan.ScoutPackets is
	// Packets less HandshakePackets and needs FieldPackets too.
	FieldPhase Fields = 1 << stripPhase
	// FieldPayload is Scan.Payload.
	FieldPayload Fields = 1 << stripPayload
	// FieldCountry is Origin.Country.
	FieldCountry Fields = 1 << stripCountry
	// FieldASN is Origin.ASN and Origin.Type.
	FieldASN Fields = 1 << stripASN
	// FieldOrg is Origin.OrgID and Origin.OrgName.
	FieldOrg Fields = 1 << stripOrg

	// FieldOrigin is the whole enrichment Origin.
	FieldOrigin = FieldCountry | FieldASN | FieldOrg
	// AllFields is a full decode.
	AllFields Fields = 1<<numStrips - 1
)

// String lists the strips of the set by name, in directory order.
func (f Fields) String() string {
	var names []string
	for i, n := range stripNames {
		if f&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	return strings.Join(names, ", ")
}

// orgEntry is one entry of a block's organization dictionary.
type orgEntry struct {
	id   int16
	name string
}

// blockEncoder is the one block encoder: it spreads records over the strips
// of the block being built. Country and organization values are written as
// ids in per-block dictionaries whose entries sit in the strip itself: an id
// equal to the number of entries defined so far is followed by the entry it
// defines.
type blockEncoder struct {
	strips     [numStrips][]byte
	blockBytes int   // the rawLen at which the block closes: what grow sizes strips for
	prev       int64 // previous record's start time
	countries  map[string]uint64
	// orgs is keyed by name alone, which a string-keyed map looks up several
	// times faster than a struct: a name met under a second organization id
	// takes a new dictionary entry and the map forgets the first.
	orgs  map[string]orgRef
	nOrgs uint64
}

// orgRef is where the encoder's block defined an organization name, and under
// which organization id.
type orgRef struct {
	dict uint64
	id   int16
}

// reset empties the encoder for the next block, keeping its buffers.
func (e *blockEncoder) reset() {
	for i := range e.strips {
		e.strips[i] = e.strips[i][:0]
	}
	e.prev = 0
	clear(e.countries)
	clear(e.orgs)
	e.nOrgs = 0
}

// rawLen is the block's inflated length so far: what WriterConfig.BlockBytes
// bounds and ZoneMap.RawLen records.
func (e *blockEncoder) rawLen() int {
	n := 0
	for _, s := range e.strips {
		n += len(s)
	}
	return n
}

// partRoom is the spare capacity add leaves every strip with: more than a
// record adds to one unless it sweeps thousands of ports.
const partRoom = 64

// grow reallocates strip i for the rest of the block: to the length it will
// have when the block's rawLen, n so far, reaches blockBytes with the strip
// at its present share of it, and an eighth more. append would get there in
// steps of a quarter and leave four times a strip's final size behind as
// garbage; a Writer's units mostly see one block each, so that would be paid
// for nearly every block written.
func (e *blockEncoder) grow(i, n int) {
	s := e.strips[i]
	final := len(s)
	if n < e.blockBytes {
		final = int(int64(final) * int64(e.blockBytes) / int64(n))
	}
	e.strips[i] = append(make([]byte, 0, final+final/8+partRoom), s...)
}

// add appends one scan, and its origin when the archive carries origins, and
// returns the block's rawLen.
func (e *blockEncoder) add(sc *core.Scan, o *enrich.Origin) int {
	e.encode(sc, o)
	n := e.rawLen()
	for i, s := range e.strips {
		if cap(s)-len(s) < partRoom {
			e.grow(i, n)
		}
	}
	return n
}

// encode spreads the record over the strips.
func (e *blockEncoder) encode(sc *core.Scan, o *enrich.Origin) {
	s := &e.strips
	s[stripStart] = binary.AppendUvarint(s[stripStart], zigzag(sc.Start-e.prev))
	e.prev = sc.Start
	s[stripDuration] = binary.AppendUvarint(s[stripDuration], uint64(sc.End-sc.Start))
	s[stripSrc] = binary.BigEndian.AppendUint32(s[stripSrc], sc.Src)
	s[stripPackets] = binary.AppendUvarint(s[stripPackets], sc.Packets)
	s[stripDsts] = binary.AppendUvarint(s[stripDsts], uint64(sc.DistinctDsts))

	ports := binary.AppendUvarint(s[stripPorts], uint64(len(sc.Ports)))
	prev := uint16(0)
	for _, p := range sc.Ports { // ascending: the first delta is the port itself
		ports = binary.AppendUvarint(ports, uint64(p-prev))
		prev = p
	}
	s[stripPorts] = ports

	tq := byte(sc.Tool) & 0x3f
	if sc.Qualified {
		tq |= 0x80
	}
	s[stripTool] = append(s[stripTool], tq)
	s[stripRate] = binary.BigEndian.AppendUint64(s[stripRate], math.Float64bits(sc.RatePPS))
	s[stripCoverage] = binary.BigEndian.AppendUint64(s[stripCoverage], math.Float64bits(sc.Coverage))

	// The phase counters are zero for a passively captured scan.
	ph := byte(sc.ISN) << 1 & 0x06
	if sc.TwoPhase {
		ph |= 0x01
	}
	phase := append(s[stripPhase], ph)
	phase = binary.AppendUvarint(phase, uint64(sc.LinkedDsts))
	phase = binary.AppendUvarint(phase, sc.HandshakePackets)
	s[stripPhase] = binary.AppendUvarint(phase, sc.PayloadBytes)
	s[stripPayload] = append(binary.AppendUvarint(s[stripPayload], uint64(len(sc.Payload))), sc.Payload...)

	if o == nil {
		return
	}
	id, ok := e.countries[o.Country]
	if !ok {
		if e.countries == nil {
			e.countries = make(map[string]uint64)
		}
		id = uint64(len(e.countries))
		e.countries[o.Country] = id
	}
	s[stripCountry] = binary.AppendUvarint(s[stripCountry], id)
	if !ok {
		s[stripCountry] = appendString(s[stripCountry], o.Country)
	}
	s[stripASN] = binary.AppendUvarint(s[stripASN], uint64(o.ASN)<<8|uint64(o.Type))
	org, ok := e.orgs[o.OrgName]
	if ok = ok && org.id == o.OrgID; !ok {
		if e.orgs == nil {
			e.orgs = make(map[string]orgRef)
		}
		org = orgRef{e.nOrgs, o.OrgID}
		e.orgs[o.OrgName] = org
		e.nOrgs++
	}
	s[stripOrg] = binary.AppendUvarint(s[stripOrg], org.dict)
	if !ok {
		s[stripOrg] = binary.AppendUvarint(s[stripOrg], zigzag(int64(o.OrgID)))
		s[stripOrg] = appendString(s[stripOrg], o.OrgName)
	}
}

// blockDecoder is the one block decoder, the inverse of blockEncoder: it walks
// the strips in fields, a record per call of next, and touches no other. Each
// strip has its own cursor, so which strips are walked changes nothing about
// how any one of them is.
type blockDecoder struct {
	fields Fields
	strips *[numStrips][]byte // inflated; only those in fields are set
	at     [numStrips]int
	prev   int64         // previous record's start time
	rw     *rows         // where ports and payload decode to
	s      *blockScratch // the string table and the block's dictionaries
}

func newBlockDecoder(fields Fields, s *blockScratch, rw *rows) blockDecoder {
	s.countries, s.orgs = s.countries[:0], s.orgs[:0]
	return blockDecoder{fields: fields, strips: &s.strips, rw: rw, s: s}
}

// next decodes the next record's projected parts into sc and, when an origin
// strip is projected, o; the caller has set both to what unprojected parts
// read as. Ports and payload are lent from the tails of the rows' columns:
// rows.push commits them if the record matches. False means a strip ended
// early or holds a value no writer produces.
func (d *blockDecoder) next(sc *core.Scan, o *enrich.Origin) bool {
	f, st, at := d.fields, d.strips, &d.at
	if f&FieldStart != 0 {
		var delta uint64
		if delta, at[stripStart] = uvarint(st[stripStart], at[stripStart]); at[stripStart] < 0 {
			return false
		}
		d.prev += unzigzag(delta)
		sc.Start = d.prev
	}
	if f&FieldDuration != 0 {
		var dur uint64
		if dur, at[stripDuration] = uvarint(st[stripDuration], at[stripDuration]); at[stripDuration] < 0 {
			return false
		}
		sc.End = sc.Start + int64(dur)
	}
	if f&FieldSrc != 0 {
		b, i := st[stripSrc], at[stripSrc]
		if len(b)-i < 4 {
			return false
		}
		sc.Src = binary.BigEndian.Uint32(b[i:])
		at[stripSrc] = i + 4
	}
	if f&FieldPackets != 0 {
		if sc.Packets, at[stripPackets] = uvarint(st[stripPackets], at[stripPackets]); at[stripPackets] < 0 {
			return false
		}
	}
	if f&FieldDsts != 0 {
		var dsts uint64
		if dsts, at[stripDsts] = uvarint(st[stripDsts], at[stripDsts]); at[stripDsts] < 0 || dsts > math.MaxInt32 {
			return false
		}
		sc.DistinctDsts = int(dsts)
	}
	if f&FieldPorts != 0 {
		b := st[stripPorts]
		n, i := uvarint(b, at[stripPorts])
		if i < 0 || n > 65536 {
			return false
		}
		sc.Ports = d.rw.takePorts(int(n))
		var port uint64
		for p := range sc.Ports {
			var delta uint64
			if i < len(b) && b[i] < 0x80 { // nearly every port delta is one byte
				delta = uint64(b[i])
				i++
			} else if delta, i = uvarint(b, i); i < 0 {
				return false
			}
			if port += delta; port > math.MaxUint16 {
				return false
			}
			sc.Ports[p] = uint16(port)
		}
		at[stripPorts] = i
	}
	if f&FieldTool != 0 {
		b, i := st[stripTool], at[stripTool]
		if i >= len(b) {
			return false
		}
		sc.Tool = tools.Tool(b[i] & 0x3f)
		sc.Qualified = b[i]&0x80 != 0
		at[stripTool] = i + 1
	}
	if f&FieldRate != 0 {
		b, i := st[stripRate], at[stripRate]
		if len(b)-i < 8 {
			return false
		}
		sc.RatePPS = math.Float64frombits(binary.BigEndian.Uint64(b[i:]))
		at[stripRate] = i + 8
	}
	if f&FieldCoverage != 0 {
		b, i := st[stripCoverage], at[stripCoverage]
		if len(b)-i < 8 {
			return false
		}
		sc.Coverage = math.Float64frombits(binary.BigEndian.Uint64(b[i:]))
		at[stripCoverage] = i + 8
	}
	if f&FieldPhase != 0 {
		b, i := st[stripPhase], at[stripPhase]
		if i >= len(b) {
			return false
		}
		ph := b[i]
		sc.TwoPhase = ph&0x01 != 0
		sc.ISN = fingerprint.ISNClass(ph >> 1 & 0x03)
		var linked uint64
		linked, i = uvarint(b, i+1)
		sc.HandshakePackets, i = uvarint(b, i)
		sc.PayloadBytes, i = uvarint(b, i)
		if i < 0 || linked > math.MaxInt32 {
			return false
		}
		sc.LinkedDsts = int(linked)
		at[stripPhase] = i
		if f&FieldPackets != 0 {
			if sc.HandshakePackets > sc.Packets {
				return false
			}
			sc.ScoutPackets = sc.Packets - sc.HandshakePackets
		}
	}
	if f&FieldPayload != 0 {
		b, i := lenPrefixed(st[stripPayload], at[stripPayload])
		if i < 0 {
			return false
		}
		if len(b) > 0 {
			sc.Payload = d.rw.takePayload(len(b))
			copy(sc.Payload, b)
		}
		at[stripPayload] = i
	}
	if o == nil {
		return true
	}
	if f&FieldCountry != 0 {
		b := st[stripCountry]
		id, i := uvarint(b, at[stripCountry])
		if id == uint64(len(d.s.countries)) { // defines the entry
			var name []byte
			name, i = lenPrefixed(b, i)
			d.s.countries = append(d.s.countries, d.s.strings.intern(name))
		}
		if i < 0 || id >= uint64(len(d.s.countries)) {
			return false
		}
		o.Country = d.s.countries[id]
		at[stripCountry] = i
	}
	if f&FieldASN != 0 {
		var v uint64
		if v, at[stripASN] = uvarint(st[stripASN], at[stripASN]); at[stripASN] < 0 || v>>8 > math.MaxUint32 {
			return false
		}
		o.ASN, o.Type = uint32(v>>8), inetmodel.ScannerType(v)
	}
	if f&FieldOrg != 0 {
		b := st[stripOrg]
		id, i := uvarint(b, at[stripOrg])
		if id == uint64(len(d.s.orgs)) { // defines the entry
			var orgID uint64
			var name []byte
			orgID, i = uvarint(b, i)
			name, i = lenPrefixed(b, i)
			v := unzigzag(orgID)
			if v < math.MinInt16 || v > math.MaxInt16 {
				return false
			}
			d.s.orgs = append(d.s.orgs, orgEntry{int16(v), d.s.strings.intern(name)})
		}
		if i < 0 || id >= uint64(len(d.s.orgs)) {
			return false
		}
		o.OrgID, o.OrgName = d.s.orgs[id].id, d.s.orgs[id].name
		at[stripOrg] = i
	}
	return true
}

// finished reports whether every projected strip ended where its last record
// did: strips of one block hold the same number of records.
func (d *blockDecoder) finished() bool {
	for i := range d.strips {
		if d.fields&(1<<i) != 0 && d.at[i] != len(d.strips[i]) {
			return false
		}
	}
	return true
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
