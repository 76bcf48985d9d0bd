package core

import (
	"encoding/binary"
	"testing"

	"github.com/synscan/synscan/internal/rng"
)

// srcModel drives a srcTable beside a map[uint32]*flow oracle.
type srcModel struct {
	t    testing.TB
	tab  srcTable
	want map[uint32]*flow
	keys []uint32 // the oracle's keys, for picking one to remove
}

func newSrcModel(t testing.TB, mult uint32) *srcModel {
	return &srcModel{t: t, tab: newSrcTable(mult), want: map[uint32]*flow{}}
}

// open looks src up and inserts a flow for it when it is absent, as Ingest does.
func (m *srcModel) open(src uint32) {
	m.t.Helper()
	s := m.tab.find(src)
	if s.f != m.want[src] {
		m.t.Fatalf("find(%#x) = %p, oracle %p", src, s.f, m.want[src])
	}
	if s.f == nil {
		f := &flow{src: src}
		m.tab.insert(s, f)
		m.want[src] = f
		m.keys = append(m.keys, src)
	}
	if m.tab.n != len(m.want) || m.tab.n*2 > len(m.tab.slots) {
		m.t.Fatalf("%d flows in %d slots, oracle %d", m.tab.n, len(m.tab.slots), len(m.want))
	}
}

// close removes the i-th oracle key's flow, as expiry does.
func (m *srcModel) close(i int) {
	m.t.Helper()
	src := m.keys[i]
	m.keys[i] = m.keys[len(m.keys)-1]
	m.keys = m.keys[:len(m.keys)-1]
	m.tab.remove(m.want[src])
	delete(m.want, src)
	if s := m.tab.find(src); s.f != nil {
		m.t.Fatalf("%#x still found after its removal", src)
	}
	if m.tab.n != len(m.want) {
		m.t.Fatalf("%d flows after a removal, oracle %d", m.tab.n, len(m.want))
	}
}

// check compares the whole table with the oracle: every flow is found, every
// occupied slot holds an oracle flow under its own source, and no empty slot
// sits between a flow and its home, which a removal that failed to pull its
// run back would leave.
func (m *srcModel) check() {
	m.t.Helper()
	tab := &m.tab
	mask := uint32(len(tab.slots) - 1)
	live := 0
	for i, s := range tab.slots {
		if s.f == nil {
			continue
		}
		live++
		if m.want[s.src] != s.f || s.f.src != s.src {
			m.t.Fatalf("slot %d holds %#x → %p, oracle %p", i, s.src, s.f, m.want[s.src])
		}
		for j := tab.home(s.src); j != uint32(i); j = (j + 1) & mask {
			if tab.slots[j].f == nil {
				m.t.Fatalf("%#x sits at %d behind an empty slot %d", s.src, i, j)
			}
		}
	}
	if live != len(m.want) || tab.n != live {
		m.t.Fatalf("%d occupied slots, n = %d, oracle %d", live, tab.n, len(m.want))
	}
	for src, f := range m.want {
		if got := tab.find(src).f; got != f {
			m.t.Fatalf("find(%#x) = %p, oracle %p", src, got, f)
		}
	}
}

// probes is how many slots find reads to reach src.
func (t *srcTable) probes(src uint32) int {
	mask := uint32(len(t.slots) - 1)
	n := 1
	for i := t.home(src); t.slots[i].src != src || t.slots[i].f == nil; i = (i + 1) & mask {
		n++
	}
	return n
}

// TestSourceTableMatchesMap: seeded insert, lookup and remove churn over a
// small universe (sources come back after removal) and a wide one, the
// extreme addresses mixed in; removals whose probe run wraps past the end of
// the slice; and growth through every power of two up to 2^17 slots.
func TestSourceTableMatchesMap(t *testing.T) {
	t.Run("churn", func(t *testing.T) {
		for seed := uint64(1); seed <= 8; seed++ {
			r := rng.New(seed)
			m := newSrcModel(t, uint32(r.Uint64()))
			for op := 0; op < 50000; op++ {
				switch k := r.Intn(100); {
				case k == 0:
					m.check()
				case k < 45 && len(m.keys) > 0:
					m.close(r.Intn(len(m.keys)))
				default:
					src := uint32(r.Uint64())
					switch r.Intn(8) {
					case 0:
						src = 0
					case 1:
						src = 0xFFFFFFFF
					case 2, 3, 4:
						src = 0xC0A80000 | src&0x1FF
					}
					m.open(src)
				}
			}
			m.check()
		}
	})

	t.Run("wrap", func(t *testing.T) {
		// Sources whose home is the last slot of the 64-slot table fill it
		// and wrap onto slots 0, 1, 2, …; one whose home is slot 0 queues
		// behind them. Removing each in turn must pull the rest back across
		// the end of the slice.
		const mult = 0x9E3779B9 // 2^32 / golden ratio, made odd
		probe := newSrcTable(mult)
		var last, first []uint32
		for src := uint32(0); len(last) < 4 || len(first) < 2; src++ {
			switch probe.home(src) {
			case minSrcSlots - 1:
				last = append(last, src)
			case 0:
				first = append(first, src)
			}
		}
		order := []uint32{last[0], last[1], first[0], last[2], last[3], first[1]}
		for victim := range order {
			m := newSrcModel(t, mult)
			for _, src := range order {
				m.open(src)
			}
			if m.tab.probes(first[1]) < 4 {
				t.Fatalf("the crafted run does not wrap: %d probes to the last source", m.tab.probes(first[1]))
			}
			m.check()
			for i, src := range m.keys {
				if src == order[victim] {
					m.close(i)
					break
				}
			}
			m.check()
			for len(m.keys) > 0 {
				m.close(0)
				m.check()
			}
		}
	})

	t.Run("growth", func(t *testing.T) {
		m := newSrcModel(t, srcMultiplier(rng.New(3).Uint64))
		for i := uint32(0); i < 1<<16; i++ {
			before := len(m.tab.slots)
			m.open(0x0A000000 + i*2654435761)
			if after := len(m.tab.slots); after != before {
				if after != 2*before || m.tab.n != before/2+1 {
					t.Fatalf("grew %d → %d slots at %d flows", before, after, m.tab.n)
				}
				m.check()
			}
		}
		if got := len(m.tab.slots); got != 1<<17 {
			t.Fatalf("%d flows in %d slots, want %d", m.tab.n, got, 1<<17)
		}
		m.check()
		r := rng.New(4)
		for len(m.keys) > 0 {
			m.close(r.Intn(len(m.keys)))
			if len(m.keys)%4096 == 0 {
				m.check()
			}
		}
	})
}

// TestSourceTableCraftedRuns: sources chosen so that, for one known
// multiplier, they share one home slot do build one probe run as long as the
// set in a table hashed with it — the attack is real when the multiplier is
// known — and no longer share one under sixteen multipliers srcMultiplier
// draws (their longest run stays under an eighth of the set: multiply-shift
// is universal, not random, and about one drawn multiplier in a hundred
// still gives this set a run of 60 or more). The structured sets a telescope
// does see (a shared suffix, a /16 swept in order, a stride of 2^24) stay
// within eight probes of home at load ½ under the same sixteen multipliers.
// A multiplier the block screen rejects is shown to matter: one near 1/3
// strings a block of sources into three dense chains.
func TestSourceTableCraftedRuns(t *testing.T) {
	longest := func(mult uint32, srcs []uint32) int {
		tab := newSrcTable(mult)
		flows := make([]flow, len(srcs))
		for i, src := range srcs {
			if s := tab.find(src); s.f == nil {
				flows[i].src = src
				tab.insert(s, &flows[i])
			}
		}
		if tab.n*2 != len(tab.slots) {
			t.Fatalf("%d sources in %d slots: not at load ½", tab.n, len(tab.slots))
		}
		worst := 0
		for _, src := range srcs {
			worst = max(worst, tab.probes(src))
		}
		return worst
	}

	const known, crafted = 0x9E3779B9, 512
	table := srcTable{mult: known, shift: 32 - 10} // 1024 slots: 512 sources at load ½
	var attack []uint32
	for src := uint32(0); len(attack) < crafted; src++ {
		if table.home(src) == 777 {
			attack = append(attack, src)
		}
	}
	if n := longest(known, attack); n < crafted {
		t.Fatalf("known multiplier: longest probe run %d, the crafted sources should share one of %d", n, crafted)
	}

	sets := map[string][]uint32{}
	for i := uint32(0); i < 1<<16; i++ {
		sets["low 16 bits equal"] = append(sets["low 16 bits equal"], i<<16|0xBEEF)
		sets["a /16 in order"] = append(sets["a /16 in order"], 0xC0A80000+i)
	}
	for i := uint32(0); i < 1<<8; i++ { // a stride of 2^24 wraps the address space after 256
		sets["stride 2^24"] = append(sets["stride 2^24"], i<<24|0x0A0B0C)
	}
	r := rng.New(31)
	for k := 0; k < 16; k++ {
		mult := srcMultiplier(r.Uint64)
		if n := longest(mult, attack); n > crafted/8 {
			t.Errorf("multiplier %#x: the crafted sources still build a probe run of %d", mult, n)
		}
		for name, srcs := range sets {
			if n := longest(mult, srcs); n > 8 {
				t.Errorf("%s, multiplier %#x: a probe run of %d", name, mult, n)
			}
		}
	}

	const third = 0x55555555 // 2^32/3: partial quotients 3, 1, 1, then 2^30
	if spreadsBlocks(third) {
		t.Fatalf("multiplier %#x passes the block screen", third)
	}
	if n := longest(third, sets["a /16 in order"][:1024]); n <= 64 {
		t.Fatalf("multiplier %#x: 1024 sources in order build runs of only %d; the screen guards nothing", third, n)
	}
	accepted := 0
	for k := 0; k < 10000; k++ {
		if spreadsBlocks(uint32(r.Uint64()) | 1) {
			accepted++
		}
	}
	if accepted < 1500 || accepted > 3000 {
		t.Errorf("the block screen keeps %d of 10 000 odd multipliers; its comment says about one in five", accepted)
	}
}

// FuzzSourceTable drives a srcTable with a fuzz-chosen multiplier — so the
// fuzzer can pile sources onto one home and wrap runs round the end of the
// slice — against the map oracle. The first four bytes are the multiplier;
// each following five-byte record is an opcode and a source.
func FuzzSourceTable(f *testing.F) {
	rec := func(op byte, v uint32) []byte { return binary.LittleEndian.AppendUint32([]byte{op}, v) }
	seed := binary.LittleEndian.AppendUint32(nil, 0x9E3779B9)
	for i := uint32(0); i < 40; i++ {
		seed = append(seed, rec(0, i<<26)...)
		if i%3 == 2 {
			seed = append(seed, rec(1, i)...)
		}
	}
	seed = append(seed, rec(2, 0)...)
	f.Add(seed)
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 1), rec(0, 0xFFFFFFFF)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		m := newSrcModel(t, binary.LittleEndian.Uint32(data))
		for data = data[4:]; len(data) >= 5; data = data[5:] {
			v := binary.LittleEndian.Uint32(data[1:])
			switch data[0] % 3 {
			case 0:
				m.open(v)
			case 1: // remove the operand's pick of the open sources
				if len(m.keys) > 0 {
					m.close(int(v % uint32(len(m.keys))))
				}
			case 2:
				m.check()
			}
		}
		m.check()
	})
}
