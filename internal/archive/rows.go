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
// a set a strip at a time (blockDecoder.strip, or gather from the columns a
// filter was run over); the caller of Query loads row after row into one
// reused Scan and Origin for emit, then releases the set to rowsFree for the
// next block of this query or of any other. That is why emit's pointers are
// valid only until it returns.
//
// Ports and payload bytes sit back to back in one column each, ends recorded
// per row. Nothing here aliases the pooled blockScratch: ports are decoded,
// payload bytes copied, strings are interned copies.
type rows struct {
	fields Fields // the strips the columns hold
	n      int    // rows held
	err    error  // what failed the block; no rows then

	start          []int64
	dur            []int64 // as in the strip: End less Start, which load adds back
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
// such window. Both read GOMAXPROCS when they are used, the query as it
// starts and release as a set comes back, so a GOMAXPROCS lowered since the
// process started (go test -cpu 1) lowers the two together; the channel's
// capacity, GOMAXPROCS at start, caps the list. Sets beyond it, which
// concurrent queries or a reader with more workers take, go to the
// collector when they come back.
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
// list holds a window already. Under poisonScratch every column is scribbled
// first, to its capacity, so a row kept past emit reads sentinels.
func (rw *rows) release() {
	if poisonScratch.Load() {
		rw.poison()
	}
	if len(rowsFree) >= 2*runtime.GOMAXPROCS(0)+1 {
		return
	}
	select {
	case rowsFree <- rw:
	default:
	}
}

// reset empties the set for a block decoded with fields. A projected column
// keeps its memory; every other one is dropped to the spares of its type, so
// an idle set holds what the last query it served reads and no more, and a
// column a query projects again comes back from the spares instead of being
// regrown from nothing.
func (rw *rows) reset(fields Fields) {
	rw.fields, rw.n, rw.err = fields, 0, nil
	rw.start = column(rw.start, fields&FieldStart, spares.int64s)
	rw.dur = column(rw.dur, fields&FieldDuration, spares.int64s)
	rw.src = column(rw.src, fields&FieldSrc, spares.uint32s)
	rw.packets = column(rw.packets, fields&FieldPackets, spares.uint64s)
	rw.dsts = column(rw.dsts, fields&FieldDsts, spares.int32s)
	rw.portEnd = column(rw.portEnd, fields&FieldPorts, spares.uint32s)
	rw.ports = column(rw.ports, fields&FieldPorts, spares.uint16s)
	if fields&FieldPorts != 0 && rw.ports == nil {
		// A record with no ports decodes to an empty list, not to "not
		// projected": the column is never nil while projected.
		rw.ports = make([]uint16, 0, 256)
	}
	rw.tool = column(rw.tool, fields&FieldTool, spares.bytes)
	rw.rate = column(rw.rate, fields&FieldRate, spares.float64s)
	rw.coverage = column(rw.coverage, fields&FieldCoverage, spares.float64s)
	rw.phase = column(rw.phase, fields&FieldPhase, spares.phases)
	rw.payloadEnd = column(rw.payloadEnd, fields&FieldPayload, spares.uint32s)
	rw.payload = column(rw.payload, fields&FieldPayload, spares.bytes)
	rw.country = column(rw.country, fields&FieldCountry, spares.strings)
	rw.asn = column(rw.asn, fields&FieldASN, spares.uint64s)
	rw.org = column(rw.org, fields&FieldOrg, spares.orgs)
}

// spares holds the columns reset dropped, by element type, for the next set
// whose query projects a column of that type: a query that projects other
// strips than the one before it takes its columns back instead of regrowing
// them a doubling at a time in every set. Each type keeps as many as
// rowsFree keeps sets, so the spares hold at most what a window of sets
// projecting every strip would, and a column beyond that goes to the
// collector.
var spares = struct {
	int64s   chan []int64
	int32s   chan []int32
	uint16s  chan []uint16
	uint32s  chan []uint32
	uint64s  chan []uint64
	float64s chan []float64
	bytes    chan []byte
	strings  chan []string
	phases   chan []phaseRow
	orgs     chan []orgEntry
}{
	make(chan []int64, cap(rowsFree)), make(chan []int32, cap(rowsFree)),
	make(chan []uint16, cap(rowsFree)), make(chan []uint32, cap(rowsFree)),
	make(chan []uint64, cap(rowsFree)), make(chan []float64, cap(rowsFree)),
	make(chan []byte, cap(rowsFree)), make(chan []string, cap(rowsFree)),
	make(chan []phaseRow, cap(rowsFree)), make(chan []orgEntry, cap(rowsFree)),
}

// column empties c when its strip is projected, taking a spare if c has no
// memory, and drops c to the spares otherwise.
func column[T any](c []T, projected Fields, spare chan []T) []T {
	if projected == 0 {
		if cap(c) > 0 {
			select {
			case spare <- c[:0]:
			default:
			}
		}
		return nil
	}
	if cap(c) == 0 {
		select {
		case c = <-spare:
		default:
		}
	}
	return c[:0]
}

// clear empties the set for a run of records decoded with fields, keeping
// every column's memory whatever fields names: the filter columns on a
// blockScratch, which serve every query's filter, are never dropped.
func (rw *rows) clear(fields Fields) {
	rw.fields, rw.n, rw.err = fields, 0, nil
	rw.start, rw.dur, rw.src, rw.packets = rw.start[:0], rw.dur[:0], rw.src[:0], rw.packets[:0]
	rw.dsts, rw.portEnd, rw.ports, rw.tool = rw.dsts[:0], rw.portEnd[:0], rw.ports[:0], rw.tool[:0]
	rw.rate, rw.coverage, rw.phase = rw.rate[:0], rw.coverage[:0], rw.phase[:0]
	rw.payloadEnd, rw.payload = rw.payloadEnd[:0], rw.payload[:0]
	rw.country, rw.asn, rw.org = rw.country[:0], rw.asn[:0], rw.org[:0]
}

// room makes room for n more elements in column c, at least doubling its
// capacity when it grows: a column that grows a record's ports, or a run's
// matches, at a time reaches a block's size in a few steps, where append's
// quarter steps past 256 elements would allocate five times that size on the
// way. A column given room for all its rows at once takes slices.Grow, which
// grows it once, to about that size: doubled, a decode that keeps every
// record held up to twice a block.
func room[T any](c []T, n int) []T {
	if cap(c)-len(c) >= n {
		return c
	}
	return slices.Grow(c, max(n, cap(c), 64))
}

// gather appends to rw the parts in fields of the records keep numbers, in
// order, which src holds from record from on: a filter's columns, decoded for
// a run of a block's records, narrowed to the records the filter kept.
func (rw *rows) gather(src *rows, keep []int32, from int, fields Fields) {
	m := len(keep)
	if fields&FieldStart != 0 {
		rw.start = pick(room(rw.start, m), src.start, keep, from)
	}
	if fields&FieldDuration != 0 {
		rw.dur = pick(room(rw.dur, m), src.dur, keep, from)
	}
	if fields&FieldSrc != 0 {
		rw.src = pick(room(rw.src, m), src.src, keep, from)
	}
	if fields&FieldPackets != 0 {
		rw.packets = pick(room(rw.packets, m), src.packets, keep, from)
	}
	if fields&FieldDsts != 0 {
		rw.dsts = pick(room(rw.dsts, m), src.dsts, keep, from)
	}
	if fields&FieldPorts != 0 {
		ports, ends := rw.ports, room(rw.portEnd, m)
		for _, r := range keep {
			lo, hi := src.runOf(src.portEnd, int(r)-from)
			ports = append(room(ports, hi-lo), src.ports[lo:hi]...)
			ends = append(ends, uint32(len(ports)))
		}
		rw.ports, rw.portEnd = ports, ends
	}
	if fields&FieldTool != 0 {
		rw.tool = pick(room(rw.tool, m), src.tool, keep, from)
	}
	if fields&FieldRate != 0 {
		rw.rate = pick(room(rw.rate, m), src.rate, keep, from)
	}
	if fields&FieldCoverage != 0 {
		rw.coverage = pick(room(rw.coverage, m), src.coverage, keep, from)
	}
	if fields&FieldPhase != 0 {
		rw.phase = pick(room(rw.phase, m), src.phase, keep, from)
	}
	if fields&FieldPayload != 0 {
		payload, ends := rw.payload, room(rw.payloadEnd, m)
		for _, r := range keep {
			lo, hi := src.runOf(src.payloadEnd, int(r)-from)
			payload = append(room(payload, hi-lo), src.payload[lo:hi]...)
			ends = append(ends, uint32(len(payload)))
		}
		rw.payload, rw.payloadEnd = payload, ends
	}
	if fields&FieldCountry != 0 {
		rw.country = pick(room(rw.country, m), src.country, keep, from)
	}
	if fields&FieldASN != 0 {
		rw.asn = pick(room(rw.asn, m), src.asn, keep, from)
	}
	if fields&FieldOrg != 0 {
		rw.org = pick(room(rw.org, m), src.org, keep, from)
	}
}

// pick appends the elements of src, which starts at record from, that keep
// numbers to dst.
func pick[T any](dst, src []T, keep []int32, from int) []T {
	for _, r := range keep {
		dst = append(dst, src[int(r)-from])
	}
	return dst
}

// load writes row i's parts in fields, which the set holds, into sc and,
// when an origin strip is among them, o: every such part, a nil Payload for
// an empty run included, so what the row held before reads as it did only
// where fields names nothing. sc.Ports and sc.Payload then point into the
// set's columns. Scan.End is loaded as sc.Start plus the stored duration: a
// row whose start is not loaded ends where its blank start says.
func (rw *rows) load(i int, sc *core.Scan, o *enrich.Origin, fields Fields) {
	f := fields
	if f&FieldStart != 0 {
		sc.Start = rw.start[i]
	}
	if f&FieldDuration != 0 {
		sc.End = sc.Start + rw.dur[i]
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
		sc.Payload = nil
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
	fill(rw.dur, p64)
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

// fill sets c to v to its capacity. It doubles a copy of the first element
// rather than storing element by element, so that the race detector checks a
// few ranges instead of every store: under -race, poisoning a large buffer a
// byte at a time was most of what the poisoning tests cost.
func fill[T any](c []T, v T) {
	c = c[:cap(c)]
	if len(c) == 0 {
		return
	}
	c[0] = v
	for n := 1; n < len(c); n *= 2 {
		copy(c[n:], c[:n])
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
