package archive

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/fingerprint"
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

// blockDecoder is the one block decoder, the inverse of blockEncoder. It
// decodes a strip at a time: strip walks one strip over a run of the block's
// records — each strip has its own cursor, so a strip can be walked in runs —
// and appends the part of each record of the run a selection keeps to that
// strip's column of a row set. Every record of every strip it is asked for
// is walked, kept or not, so each check runs on every record. Strips are
// independent of each other but for one check: a record's handshake packets,
// in the phase strip, are at most its packets.
type blockDecoder struct {
	strips *[numStrips][]byte // inflated; only the projected ones are set
	n      int                // records in the block
	at     [numStrips]int     // each strip's cursor: where its next record starts
	prev   int64              // the start time of the start strip's last record
	s      *blockScratch      // the string table and the block's dictionaries
}

func newBlockDecoder(s *blockScratch, n int) blockDecoder {
	s.countries, s.orgs = s.countries[:0], s.orgs[:0]
	return blockDecoder{strips: &s.strips, n: n, s: s}
}

// selection is the records of a block a row set keeps, in record order:
// every record, or those keep numbers, ascending.
type selection struct {
	all  bool
	keep []int32
	k    int // the records of keep passed so far
}

// kept reports whether record r is kept. Records are asked about once each,
// in order.
func (sel *selection) kept(r int) bool {
	if sel.all {
		return true
	}
	if sel.k < len(sel.keep) && int(sel.keep[sel.k]) == r {
		sel.k++
		return true
	}
	return false
}

// strip decodes records from to to of strip i, the next ones of it, into
// rw's column for it, appending the part of each record sel keeps: every
// record of the run, or those of keep, which then numbers records of that
// run only. packets holds the run's packet counts when the packets strip is
// projected, for the phase strip's check, and is nil otherwise. False means
// the strip ended early, holds a value no writer produces, or — after its
// last record — goes on.
func (d *blockDecoder) strip(i int, rw *rows, sel selection, packets []uint64, from, to int) bool {
	b, n, at := d.strips[i], d.n, d.at[i]
	m := to - from // the records kept
	if !sel.all {
		m = len(sel.keep)
	}
	switch i {
	case stripStart:
		col, prev := slices.Grow(rw.start, m), d.prev
		for r := from; r < to; r++ {
			var delta uint64
			delta, at = uvarint(b, at)
			prev += unzigzag(delta)
			if sel.kept(r) {
				col = append(col, prev)
			}
		}
		rw.start, d.prev = col, prev
	case stripDuration:
		col := slices.Grow(rw.dur, m)
		for r := from; r < to; r++ {
			var dur uint64
			dur, at = uvarint(b, at)
			if sel.kept(r) {
				col = append(col, int64(dur))
			}
		}
		rw.dur = col
	case stripSrc:
		if len(b) != 4*n {
			return false
		}
		col := slices.Grow(rw.src, m)
		if sel.all {
			for r := from; r < to; r++ {
				col = append(col, binary.BigEndian.Uint32(b[4*r:]))
			}
		} else {
			for _, r := range sel.keep {
				col = append(col, binary.BigEndian.Uint32(b[4*r:]))
			}
		}
		rw.src, at = col, 4*to
	case stripPackets:
		col := slices.Grow(rw.packets, m)
		for r := from; r < to; r++ {
			var v uint64
			v, at = uvarint(b, at)
			if sel.kept(r) {
				col = append(col, v)
			}
		}
		rw.packets = col
	case stripDsts:
		col := slices.Grow(rw.dsts, m)
		for r := from; r < to; r++ {
			var v uint64
			if v, at = uvarint(b, at); v > math.MaxInt32 {
				return false
			}
			if sel.kept(r) {
				col = append(col, int32(v))
			}
		}
		rw.dsts = col
	case stripPorts:
		if at = d.ports(rw, &sel, from, to, m); at < 0 {
			return false
		}
	case stripTool:
		if len(b) != n {
			return false
		}
		col := slices.Grow(rw.tool, m)
		if sel.all {
			col = append(col, b[from:to]...)
		} else {
			for _, r := range sel.keep {
				col = append(col, b[r])
			}
		}
		rw.tool, at = col, to
	case stripRate, stripCoverage:
		if len(b) != 8*n {
			return false
		}
		col := &rw.rate
		if i == stripCoverage {
			col = &rw.coverage
		}
		c := slices.Grow(*col, m)
		if sel.all {
			for r := from; r < to; r++ {
				c = append(c, math.Float64frombits(binary.BigEndian.Uint64(b[8*r:])))
			}
		} else {
			for _, r := range sel.keep {
				c = append(c, math.Float64frombits(binary.BigEndian.Uint64(b[8*r:])))
			}
		}
		*col, at = c, 8*to
	case stripPhase:
		col := slices.Grow(rw.phase, m)
		for r := from; r < to; r++ {
			if uint(at) >= uint(len(b)) {
				return false
			}
			ph := b[at]
			var linked, handshake, payload uint64
			linked, at = uvarint(b, at+1)
			handshake, at = uvarint(b, at)
			payload, at = uvarint(b, at)
			if at < 0 || linked > math.MaxInt32 || packets != nil && handshake > packets[r-from] {
				return false
			}
			if sel.kept(r) {
				col = append(col, phaseRow{
					handshake: handshake, payloadBytes: payload, linked: int32(linked),
					isn: fingerprint.ISNClass(ph >> 1 & 0x03), twoPhase: ph&0x01 != 0,
				})
			}
		}
		rw.phase = col
	case stripPayload:
		data, ends := rw.payload, slices.Grow(rw.payloadEnd, m)
		if sel.all && from == 0 && to == n {
			data = slices.Grow(data, len(b)-n) // every record's length takes a byte
		}
		for r := from; r < to; r++ {
			var p []byte
			if p, at = lenPrefixed(b, at); at < 0 {
				return false
			}
			if sel.kept(r) {
				data = append(room(data, len(p)), p...)
				ends = append(ends, uint32(len(data)))
			}
		}
		rw.payload, rw.payloadEnd = data, ends
	case stripCountry:
		col, dict := slices.Grow(rw.country, m), d.s.countries
		for r := from; r < to; r++ {
			var id uint64
			id, at = uvarint(b, at)
			if id == uint64(len(dict)) { // defines the entry
				var name []byte
				name, at = lenPrefixed(b, at)
				dict = append(dict, d.s.strings.intern(name))
			}
			if at < 0 || id >= uint64(len(dict)) {
				return false
			}
			if sel.kept(r) {
				col = append(col, dict[id])
			}
		}
		rw.country, d.s.countries = col, dict
	case stripASN:
		col := slices.Grow(rw.asn, m)
		for r := from; r < to; r++ {
			var v uint64
			if v, at = uvarint(b, at); v>>8 > math.MaxUint32 {
				return false
			}
			if sel.kept(r) {
				col = append(col, v)
			}
		}
		rw.asn = col
	case stripOrg:
		col, dict := slices.Grow(rw.org, m), d.s.orgs
		for r := from; r < to; r++ {
			var id uint64
			id, at = uvarint(b, at)
			if id == uint64(len(dict)) { // defines the entry
				var orgID uint64
				var name []byte
				orgID, at = uvarint(b, at)
				name, at = lenPrefixed(b, at)
				v := unzigzag(orgID)
				if v < math.MinInt16 || v > math.MaxInt16 {
					return false
				}
				dict = append(dict, orgEntry{int16(v), d.s.strings.intern(name)})
			}
			if at < 0 || id >= uint64(len(dict)) {
				return false
			}
			if sel.kept(r) {
				col = append(col, dict[id])
			}
		}
		rw.org, d.s.orgs = col, dict
	}
	// A malformed value leaves at negative (uvarint's sticky index): the
	// strip failed. Otherwise, after its last record, it must end where that
	// record did, as every strip of a block holds the same records.
	d.at[i] = at
	return at >= 0 && (to < n || at == len(b))
}

// ports decodes records from to to of the ports strip, the one whose
// records vary in length unboundedly: a count and as many ascending port
// deltas. It returns the strip's cursor after them, negative on failure.
func (d *blockDecoder) ports(rw *rows, sel *selection, from, to, m int) int {
	b, n, at := d.strips[stripPorts], d.n, d.at[stripPorts]
	ports, ends := rw.ports, slices.Grow(rw.portEnd, m)
	if ports == nil {
		// A record with no ports decodes to an empty list, not to "not
		// projected": the column is never nil once decoded.
		ports = make([]uint16, 0, 256)
	}
	if sel.all && from == 0 && to == n {
		ports = slices.Grow(ports, len(b)-n) // every port takes a byte, and every record's count one
	}
	for r := from; r < to; r++ {
		var count uint64
		if count, at = uvarint(b, at); at < 0 || count > 65536 || count > uint64(len(b)-at) {
			return -1
		}
		kept := sel.kept(r)
		var run []uint16
		if kept {
			l := len(ports)
			ports = room(ports, int(count))[:l+int(count)]
			run = ports[l:]
		}
		var port uint64
		for p := range int(count) {
			var delta uint64
			if uint(at) < uint(len(b)) && b[at] < 0x80 { // nearly every port delta is one byte
				delta = uint64(b[at])
				at++
			} else if delta, at = uvarint(b, at); at < 0 {
				return -1
			}
			if port += delta; port > math.MaxUint16 {
				return -1
			}
			if kept {
				run[p] = uint16(port)
			}
		}
		if kept {
			ends = append(ends, uint32(len(ports)))
		}
	}
	rw.ports, rw.portEnd = ports, ends
	return at
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
