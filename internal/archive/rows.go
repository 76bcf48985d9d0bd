package archive

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/fingerprint"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/tools"
)

// rows is one decoded block's matching records, column by column: a column
// per strip the query projects, holding that strip's part of every match in
// record order, and nothing for the strips it does not. A decode worker fills
// a set (push, after decoding each record into its own scratch Scan); the
// caller of Query loads row after row into one reused Scan and Origin for
// emit, then releases the set to rowsFree for the next block of this query or
// of any other. That is why emit's pointers are valid only until it returns.
//
// Ports and payload bytes sit back to back in one column each, ends recorded
// per row; the decoder writes a record's list straight into the column's tail
// (takePorts, takePayload) and push commits it, so a rejected record's list is
// overwritten by the next one. Nothing here aliases the pooled blockScratch:
// ports are decoded, payload bytes copied, strings are interned copies.
type rows struct {
	fields Fields // the strips the columns hold
	n      int    // rows held
	err    error  // what failed the block; no rows then

	start, end     []int64
	src            []uint32
	packets        []uint64
	dsts           []int32 // DistinctDsts, ≤ MaxInt32 by the decoder's check
	portEnd        []uint32
	ports          []uint16
	tool           []byte // as in the strip: the tool in the low six bits, 0x80 Qualified
	rate, coverage []float64
	phase          []phaseRow
	payloadEnd     []uint32
	payload        []byte
	country        []string
	asn            []uint64 // ASN<<8 | Type, as in the strip
	org            []orgEntry
}

// phaseRow is one record's part of the phase strip.
type phaseRow struct {
	handshake, payloadBytes uint64
	linked                  int32
	isn                     fingerprint.ISNClass
	twoPhase                bool
}

// rowsFree is the free list of idle sets. A query holds at most ahead+1 sets
// — the blocks admitted to its workers and the one its caller is draining —
// and ahead is twice the workers, GOMAXPROCS by default: the list keeps one
// such window, a constant like scratchFree's. Sets beyond it, which
// concurrent queries or a reader with more workers take, go to the collector
// when they come back.
var rowsFree = make(chan *rows, 2*runtime.GOMAXPROCS(0)+1)

// rowsMade counts the sets ever allocated, for the tests that bound them.
var rowsMade atomic.Uint64

// getRows takes an idle set, or makes one, and resets it to hold fields.
func getRows(fields Fields) *rows {
	var rw *rows
	select {
	case rw = <-rowsFree:
	default:
		rw = new(rows)
		rowsMade.Add(1)
	}
	rw.reset(fields)
	return rw
}

// release returns the set to the free list, or to the collector when the
// list is full. Under poisonScratch every column is scribbled first, to its
// capacity, so a row kept past emit reads sentinels.
func (rw *rows) release() {
	if poisonScratch.Load() {
		rw.poison()
	}
	select {
	case rowsFree <- rw:
	default:
	}
}

// reset empties the set for a block decoded with fields. A projected column
// keeps its memory; every other one is dropped, so an idle set holds what the
// last query it served reads and no more.
func (rw *rows) reset(fields Fields) {
	rw.fields, rw.n, rw.err = fields, 0, nil
	rw.start = column(rw.start, fields&FieldStart)
	rw.end = column(rw.end, fields&FieldDuration)
	rw.src = column(rw.src, fields&FieldSrc)
	rw.packets = column(rw.packets, fields&FieldPackets)
	rw.dsts = column(rw.dsts, fields&FieldDsts)
	rw.portEnd = column(rw.portEnd, fields&FieldPorts)
	rw.ports = column(rw.ports, fields&FieldPorts)
	if fields&FieldPorts != 0 && rw.ports == nil {
		// A record with no ports decodes to an empty list, not to "not
		// projected": the column is never nil while projected.
		rw.ports = make([]uint16, 0, 256)
	}
	rw.tool = column(rw.tool, fields&FieldTool)
	rw.rate = column(rw.rate, fields&FieldRate)
	rw.coverage = column(rw.coverage, fields&FieldCoverage)
	rw.phase = column(rw.phase, fields&FieldPhase)
	rw.payloadEnd = column(rw.payloadEnd, fields&FieldPayload)
	rw.payload = column(rw.payload, fields&FieldPayload)
	rw.country = column(rw.country, fields&FieldCountry)
	rw.asn = column(rw.asn, fields&FieldASN)
	rw.org = column(rw.org, fields&FieldOrg)
}

// column empties c when its strip is projected and drops it otherwise.
func column[T any](c []T, projected Fields) []T {
	if projected == 0 {
		return nil
	}
	return c[:0]
}

// takePorts lends the next n port slots past the committed ones; push commits
// them. The run is capacity-clipped, so no append to it reaches a neighbour.
func (rw *rows) takePorts(n int) []uint16 {
	rw.ports = room(rw.ports, n)
	l := len(rw.ports)
	return rw.ports[l : l+n : l+n]
}

// takePayload lends the next n payload bytes past the committed ones.
func (rw *rows) takePayload(n int) []byte {
	rw.payload = room(rw.payload, n)
	l := len(rw.payload)
	return rw.payload[l : l+n : l+n]
}

// room makes room for n more elements in column c, at least doubling its
// capacity when it grows: a column regrown for a new projection reaches a
// block's size in a few steps, where append's quarter steps past 256
// elements would allocate five times that size on the way.
func room[T any](c []T, n int) []T {
	if cap(c)-len(c) >= n {
		return c
	}
	return slices.Grow(c, max(n, cap(c), 64))
}

// add appends v to column c, growing it as room does.
func add[T any](c []T, v T) []T {
	return append(room(c, 1), v)
}

// push appends the projected parts of a matching record, decoded into sc and
// o (nil when no origin strip is projected), as the next row. Its ports and
// payload are the runs the decoder took for it.
func (rw *rows) push(sc *core.Scan, o *enrich.Origin) {
	f := rw.fields
	if f&FieldStart != 0 {
		rw.start = add(rw.start, sc.Start)
	}
	if f&FieldDuration != 0 {
		rw.end = add(rw.end, sc.End)
	}
	if f&FieldSrc != 0 {
		rw.src = add(rw.src, sc.Src)
	}
	if f&FieldPackets != 0 {
		rw.packets = add(rw.packets, sc.Packets)
	}
	if f&FieldDsts != 0 {
		rw.dsts = add(rw.dsts, int32(sc.DistinctDsts))
	}
	if f&FieldPorts != 0 {
		rw.ports = rw.ports[:len(rw.ports)+len(sc.Ports)]
		rw.portEnd = add(rw.portEnd, uint32(len(rw.ports)))
	}
	if f&FieldTool != 0 {
		tq := byte(sc.Tool)
		if sc.Qualified {
			tq |= 0x80
		}
		rw.tool = add(rw.tool, tq)
	}
	if f&FieldRate != 0 {
		rw.rate = add(rw.rate, sc.RatePPS)
	}
	if f&FieldCoverage != 0 {
		rw.coverage = add(rw.coverage, sc.Coverage)
	}
	if f&FieldPhase != 0 {
		rw.phase = add(rw.phase, phaseRow{
			handshake: sc.HandshakePackets, payloadBytes: sc.PayloadBytes,
			linked: int32(sc.LinkedDsts), isn: sc.ISN, twoPhase: sc.TwoPhase,
		})
	}
	if f&FieldPayload != 0 {
		rw.payload = rw.payload[:len(rw.payload)+len(sc.Payload)]
		rw.payloadEnd = add(rw.payloadEnd, uint32(len(rw.payload)))
	}
	if o != nil {
		if f&FieldCountry != 0 {
			rw.country = add(rw.country, o.Country)
		}
		if f&FieldASN != 0 {
			rw.asn = add(rw.asn, uint64(o.ASN)<<8|uint64(o.Type))
		}
		if f&FieldOrg != 0 {
			rw.org = add(rw.org, orgEntry{o.OrgID, o.OrgName})
		}
	}
	rw.n++
}

// load writes row i's projected parts into sc and, when an origin strip is
// projected, o; the caller has set both to what unprojected parts read as
// (blanks). sc.Ports and sc.Payload then point into the set's columns.
func (rw *rows) load(i int, sc *core.Scan, o *enrich.Origin) {
	f := rw.fields
	if f&FieldStart != 0 {
		sc.Start = rw.start[i]
	}
	if f&FieldDuration != 0 {
		sc.End = rw.end[i]
	}
	if f&FieldSrc != 0 {
		sc.Src = rw.src[i]
	}
	if f&FieldPackets != 0 {
		sc.Packets = rw.packets[i]
	}
	if f&FieldDsts != 0 {
		sc.DistinctDsts = int(rw.dsts[i])
	}
	if f&FieldPorts != 0 {
		from, to := rw.runOf(rw.portEnd, i)
		sc.Ports = rw.ports[from:to:to]
	}
	if f&FieldTool != 0 {
		tq := rw.tool[i]
		sc.Tool, sc.Qualified = tools.Tool(tq&0x3f), tq&0x80 != 0
	}
	if f&FieldRate != 0 {
		sc.RatePPS = rw.rate[i]
	}
	if f&FieldCoverage != 0 {
		sc.Coverage = rw.coverage[i]
	}
	if f&FieldPhase != 0 {
		ph := &rw.phase[i]
		sc.HandshakePackets, sc.PayloadBytes = ph.handshake, ph.payloadBytes
		sc.LinkedDsts, sc.ISN, sc.TwoPhase = int(ph.linked), ph.isn, ph.twoPhase
		if f&FieldPackets != 0 {
			sc.ScoutPackets = sc.Packets - sc.HandshakePackets
		}
	}
	if f&FieldPayload != 0 {
		if from, to := rw.runOf(rw.payloadEnd, i); to > from {
			sc.Payload = rw.payload[from:to:to]
		}
	}
	if o == nil {
		return
	}
	if f&FieldCountry != 0 {
		o.Country = rw.country[i]
	}
	if f&FieldASN != 0 {
		v := rw.asn[i]
		o.ASN, o.Type = uint32(v>>8), inetmodel.ScannerType(v)
	}
	if f&FieldOrg != 0 {
		o.OrgID, o.OrgName = rw.org[i].id, rw.org[i].name
	}
}

// runOf returns the bounds of row i's run in a column whose row ends are ends.
func (rw *rows) runOf(ends []uint32, i int) (from, to int) {
	if i > 0 {
		from = int(ends[i-1])
	}
	return from, int(ends[i])
}

// poison scribbles every column to its capacity.
func (rw *rows) poison() {
	const p64 = 0x5bdbdbdbdbdbdbdb
	fill(rw.start, p64)
	fill(rw.end, p64)
	fill(rw.src, p64>>32)
	fill(rw.packets, p64)
	fill(rw.dsts, p64>>33)
	fill(rw.portEnd, 0)
	fill(rw.ports, 0xdbdb)
	fill(rw.tool, 0xdb)
	fill(rw.rate, math.Float64frombits(p64))
	fill(rw.coverage, math.Float64frombits(p64))
	fill(rw.phase, phaseRow{p64, p64, p64 >> 33, 0xdb, true})
	fill(rw.payloadEnd, 0)
	fill(rw.payload, 0xdb)
	fill(rw.country, "\xdb\xdb")
	fill(rw.asn, p64)
	fill(rw.org, orgEntry{0x5bdb, "\xdb\xdb\xdb"})
}

func fill[T any](c []T, v T) {
	c = c[:cap(c)]
	for i := range c {
		c[i] = v
	}
}

// internMax bounds the string table; internSlots (a power of two) sizes the
// cache in front of it.
const (
	internMax   = 1024
	internSlots = 256
)

// interner returns one shared copy per distinct country and organization
// string instead of one allocation per record. The table lives on the pooled
// blockScratch, so a warm reader decodes origins without allocating; it is
// bounded — at internMax strings it starts over — so a store with a million
// organizations costs re-copies, not memory. A small direct-mapped cache
// answers the common case (two-letter country codes, a few dozen
// organizations) without hashing into the map; strings that collide there
// just take turns in the slot. The strings handed out are ordinary immutable
// Go strings copied from the raw buffer: sharing them across scans, blocks
// and queries is safe, and the table itself is never exposed.
type interner struct {
	slots [internSlots]string
	strs  map[string]string
}

func (t *interner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	h := uint32(len(b))
	for _, c := range b {
		h = h*31 + uint32(c)
	}
	slot := &t.slots[h&(internSlots-1)]
	if *slot == string(b) { // neither this conversion nor the lookup's allocates
		return *slot
	}
	s, ok := t.strs[string(b)]
	if !ok {
		if t.strs == nil {
			t.strs = make(map[string]string)
		} else if len(t.strs) >= internMax {
			clear(t.strs)
		}
		s = string(b)
		t.strs[s] = s
	}
	*slot = s
	return s
}
