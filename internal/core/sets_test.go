package core

import (
	"encoding/binary"
	"slices"
	"testing"

	"github.com/synscan/synscan/internal/rng"
)

// setsModel drives a dstSet and a portSet beside Go-map oracles. Every
// operation is checked as it is made; check compares the whole state.
type setsModel struct {
	t       testing.TB
	dsts    dstSet
	ports   portSet
	tables  dstPool
	bitmaps bitmapPool
	dm      map[uint32]uint8
	pm      map[uint16]struct{}
}

func newSetsModel(t testing.TB) *setsModel {
	return &setsModel{t: t, dm: map[uint32]uint8{}, pm: map[uint16]struct{}{}}
}

func (m *setsModel) or(dst uint32, bit uint8) {
	m.t.Helper()
	old, now := m.dsts.or(dst, bit, &m.tables)
	if want := m.dm[dst]; old != want || now != want|bit {
		m.t.Fatalf("or(%#x, %d) = (%d, %d), oracle had %d", dst, bit, old, now, want)
	}
	m.dm[dst] |= bit
	if m.dsts.n != len(m.dm) {
		m.t.Fatalf("after or(%#x): n = %d, oracle %d", dst, m.dsts.n, len(m.dm))
	}
	// Three quarters full at most, so a probe sequence always finds a free slot.
	if size := len(m.dsts.slots); size&(size-1) != 0 || m.dsts.n*4 > size*3 {
		m.t.Fatalf("%d destinations in %d slots", m.dsts.n, size)
	}
}

func (m *setsModel) add(port uint16) {
	m.t.Helper()
	m.ports.add(port, &m.bitmaps)
	m.pm[port] = struct{}{}
	if m.ports.n != len(m.pm) {
		m.t.Fatalf("after add(%d): n = %d, oracle %d", port, m.ports.n, len(m.pm))
	}
	if spilled := m.ports.bits != nil; spilled != (len(m.pm) > inlinePorts) {
		m.t.Fatalf("%d ports, spilled = %v", len(m.pm), spilled)
	}
}

// reset empties both sets and keeps the destination table.
func (m *setsModel) reset() {
	m.dsts.reset()
	m.ports.reset(&m.bitmaps)
	clear(m.dm)
	clear(m.pm)
}

// recycle is what closing and re-opening a recycled flow does to its sets: a
// destination table past minDstSlots goes to the pool first.
func (m *setsModel) recycle() {
	m.t.Helper()
	m.dsts.release(&m.tables)
	if len(m.dsts.slots) > minDstSlots {
		m.t.Fatalf("a released set kept %d slots", len(m.dsts.slots))
	}
	m.reset()
}

// check reads every destination back (a zero bit ORs nothing in) and compares
// the sorted ports.
func (m *setsModel) check() {
	m.t.Helper()
	for dst, want := range m.dm {
		if old, now := m.dsts.or(dst, 0, &m.tables); old != want || now != want {
			m.t.Fatalf("destination %#x reads (%d, %d), oracle %d", dst, old, now, want)
		}
	}
	if m.dsts.n != len(m.dm) {
		m.t.Fatalf("n = %d, oracle %d", m.dsts.n, len(m.dm))
	}
	want := make([]uint16, 0, len(m.pm))
	for p := range m.pm {
		want = append(want, p)
	}
	slices.Sort(want)
	if got := m.ports.sorted(); !slices.Equal(got, want) {
		m.t.Fatalf("ports %v, oracle %v", got, want)
	}
	for _, b := range m.bitmaps.idle {
		if *b != (portBitmap{}) {
			m.t.Fatal("a pooled bitmap is not zero")
		}
	}
	m.tables.check(m.t)
}

// check holds the table pool to its shape and to the invariant that lets a
// generation bump empty a pooled table: no slot is stamped with a generation
// above its table's.
func (p *dstPool) check(t testing.TB) {
	t.Helper()
	for k, idle := range p.idle {
		if len(idle) > maxPooledTables {
			t.Fatalf("%d pooled tables of %d slots, bound %d", len(idle), minDstSlots<<k, maxPooledTables)
		}
		for _, s := range idle {
			if len(s.slots) != minDstSlots<<k {
				t.Fatalf("a table of %d slots pooled with those of %d", len(s.slots), minDstSlots<<k)
			}
			for _, v := range s.slots {
				if v>>40 > s.gen {
					t.Fatalf("a pooled slot of generation %d in a table of generation %d", v>>40, s.gen)
				}
			}
		}
	}
}

// maxProbe is the longest distance from home slot to resting slot.
func (s *dstSet) maxProbe() int {
	worst := 0
	mask := uint64(len(s.slots) - 1)
	for i, v := range s.slots {
		if v>>40 != s.gen {
			continue
		}
		home := uint64(uint32(v>>8)) * fibHash >> s.shift
		worst = max(worst, int((uint64(i)-home)&mask))
	}
	return worst
}

// TestSetsRandomOps: seeded random streams over a small and a wide key
// universe (so both re-hits and growth happen), the extreme keys mixed in,
// with resets and recycles in the middle so grown tables, pooled tables and
// spilled sets are reused.
func TestSetsRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		m := newSetsModel(t)
		for op := 0; op < 40000; op++ {
			switch k := r.Intn(1000); {
			case k == 0:
				m.check()
				m.reset()
			case k < 3:
				m.check()
				m.recycle()
			case k < 500:
				dst := uint32(r.Uint64())
				switch r.Intn(8) {
				case 0:
					dst = 0
				case 1:
					dst = 0xFFFFFFFF
				case 2, 3, 4:
					dst = 0x0A000000 | dst&0x3FF
				}
				m.or(dst, uint8(1+r.Intn(3)))
			default:
				port := uint16(r.Uint64())
				switch r.Intn(8) {
				case 0:
					port = 0
				case 1:
					port = 65535
				case 2, 3, 4, 5:
					port = 20 + port&7
				}
				m.add(port)
			}
		}
		m.check()
	}
}

// TestDstSetGrowthBoundaries walks a set through every doubling up to 2^17
// slots, checking the whole set at each, then resets it and fills the kept
// table with the same destinations again: no growth the second time, and
// nothing of the first filling shows through.
func TestDstSetGrowthBoundaries(t *testing.T) {
	m := newSetsModel(t)
	const n = 3 << 15 // 98304 destinations end in 2^17 slots, exactly three quarters full
	fill := func(base uint32) {
		for i := uint32(0); i < n; i++ {
			before := len(m.dsts.slots)
			m.or(base+i, dstScout)
			if after := len(m.dsts.slots); after != before {
				if before != 0 && (after != 2*before || m.dsts.n*4 != before*3+4) {
					t.Fatalf("grew %d → %d slots at %d destinations", before, after, m.dsts.n)
				}
				m.check()
			}
		}
		m.check()
	}
	fill(0xFFFF0000) // wraps through 0xFFFFFFFF and 0
	if got := len(m.dsts.slots); got != 1<<17 {
		t.Fatalf("%d slots after %d destinations, want %d", got, n, 1<<17)
	}
	table := &m.dsts.slots[0]
	m.reset()
	fill(0xFFFF0000) // every slot still holds the same destination, one generation stale
	if &m.dsts.slots[0] != table {
		t.Fatal("refilling a reset set to the same size moved its table")
	}
}

// TestDstSetGenerationWrap: the reset that would overflow the generation
// clears the table instead, so a slot stamped with generation 1 in the
// previous cycle cannot come back to life.
func TestDstSetGenerationWrap(t *testing.T) {
	m := newSetsModel(t)
	m.or(7, dstScout) // stamped generation 1
	m.dsts.gen, m.dsts.n = maxDstGen, 0
	clear(m.dm)
	m.or(9, dstLinked) // stamped with the last generation; 7 is stale
	m.reset()
	if m.dsts.gen != 1 {
		t.Fatalf("generation %d after the wrapping reset, want 1", m.dsts.gen)
	}
	for _, dst := range []uint32{7, 9} {
		if old, _ := m.dsts.or(dst, 0, nil); old != 0 {
			t.Fatalf("destination %d survived the wrap with bits %d", dst, old)
		}
	}
}

// TestDstPoolReuse: a campaign's table goes to the pool when its flow is
// recycled, and the next set that grows takes it back with nothing of the
// first campaign showing through.
func TestDstPoolReuse(t *testing.T) {
	m := newSetsModel(t)
	campaign := func(base uint32) {
		for i := uint32(0); i < 300; i++ {
			m.or(base+i*7, dstScout)
		}
	}
	campaign(0x0A000000)
	if got := len(m.dsts.slots); got != 512 {
		t.Fatalf("300 destinations in %d slots, want 512", got)
	}
	table := &m.dsts.slots[0]
	m.check()
	m.recycle()
	campaign(0x0B000000)
	if &m.dsts.slots[0] != table {
		t.Fatal("the second campaign did not take the pooled table")
	}
	for i := uint32(0); i < 300; i++ {
		m.or(0x0A000000+i*7, 0) // the first campaign's destinations read as new
	}
	m.check()
}

// TestDstSetProbeLength: destinations that agree in the table's low index
// bits — what a mask-the-low-bits hash would pile onto one slot — stay within
// a short probe of home under the multiplicative hash, at every load up to
// the growth threshold.
func TestDstSetProbeLength(t *testing.T) {
	cases := map[string]func(i uint32) uint32{
		"telescope block":   func(i uint32) uint32 { return 0xCB000000 + i },
		"low 16 bits equal": func(i uint32) uint32 { return i<<16 | 0xBEEF },
		"low 24 bits equal": func(i uint32) uint32 { return i<<24 | 0xC0FFEE },
		"stride 4096":       func(i uint32) uint32 { return 0x0A000000 + i*4096 },
		"stride 2^13 + 1":   func(i uint32) uint32 { return i * (1<<13 + 1) },
	}
	for name, dst := range cases {
		n := uint32(6144) // fills maxRecycledSlots to three quarters
		if name == "low 24 bits equal" {
			n = 256
		}
		var s dstSet
		worst := 0
		for i := uint32(0); i < n; i++ {
			s.or(dst(i), dstScout, nil)
			if s.n*4 == len(s.slots)*3 { // the fullest this table gets
				worst = max(worst, s.maxProbe())
			}
		}
		if s.n != int(n) {
			t.Fatalf("%s: %d destinations, want %d", name, s.n, n)
		}
		if worst > 16 { // measured: 2 to 5
			t.Errorf("%s: longest probe %d slots", name, worst)
		}
	}
}

// TestPortSetSpill: eight ports stay inline, the ninth moves all nine into a
// bitmap taken from the pool, and a reset hands the bitmap back zeroed.
func TestPortSetSpill(t *testing.T) {
	m := newSetsModel(t)
	for _, p := range []uint16{65535, 0, 443, 80, 65535, 22, 8080, 0, 23, 3389} {
		m.add(p) // eight distinct, with repeats
	}
	if m.ports.bits != nil || m.ports.n != inlinePorts {
		t.Fatalf("%d ports, spilled %v before the ninth", m.ports.n, m.ports.bits != nil)
	}
	m.check()
	m.add(80) // a repeat does not spill
	m.add(5900)
	m.check()
	bitmap := m.ports.bits
	for p := 0; p < 1<<16; p += 251 {
		m.add(uint16(p))
	}
	m.check()
	m.reset()
	if len(m.bitmaps.idle) != 1 || m.bitmaps.idle[0] != bitmap {
		t.Fatal("the spilled set's bitmap did not return to the pool")
	}
	m.check()
	for p := uint16(1); p <= 9; p++ {
		m.add(p)
	}
	if m.ports.bits != bitmap {
		t.Fatal("the next spill did not reuse the pooled bitmap")
	}
	m.check()
}

// FuzzFlowSets drives both sets from fuzz input against the same oracles:
// each five-byte record is an opcode and a 32-bit operand.
func FuzzFlowSets(f *testing.F) {
	rec := func(op byte, v uint32) []byte { return binary.LittleEndian.AppendUint32([]byte{op}, v) }
	var seed []byte
	for i := uint32(0); i < 12; i++ {
		seed = append(seed, rec(0, i<<16)...)
		seed = append(seed, rec(3, i*7)...)
	}
	seed = append(seed, rec(1, 0)...)
	seed = append(seed, rec(2, 0xFFFFFFFF)...)
	seed = append(seed, rec(6, 0)...)
	seed = append(seed, rec(4, 200<<16|5)...)
	seed = append(seed, rec(5, 40<<16|1000)...)
	seed = append(seed, rec(6, 1)...)
	seed = append(seed, rec(4, 20<<16|3)...)
	f.Add(seed)
	f.Add(rec(4, 0xFFFF<<16|0xFFFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newSetsModel(t)
		for ; len(data) >= 5; data = data[5:] {
			v := binary.LittleEndian.Uint32(data[1:])
			switch data[0] % 7 {
			case 0, 1, 2: // one destination, one of the three bit patterns
				m.or(v, data[0]%7+1)
			case 3:
				m.add(uint16(v))
			case 4: // a strided run of destinations, up to 1024
				count, base, stride := v>>16&0x3FF, v<<16, (v&0xF|1)<<(v>>4&0xF)
				for i := uint32(0); i <= count; i++ {
					m.or(base+i*stride, dstScout)
				}
			case 5: // a strided run of ports, up to 256
				count, stride := v>>16&0xFF, v>>24|1
				for i := uint32(0); i <= count; i++ {
					m.add(uint16(v + i*stride))
				}
			case 6: // empty both sets, the table kept (even operand) or released to the pool (odd)
				m.check()
				if v&1 == 0 {
					m.reset()
				} else {
					m.recycle()
				}
			}
		}
		m.check()
	})
}
