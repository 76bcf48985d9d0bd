package core

import "math/bits"

// srcTable is the detector's index from source address to open flow: an
// open-addressed table of {src, *flow} pairs with linear probing, kept at
// most half full, doubling when an insert takes it past that, and with
// backward-shift deletion (no tombstones, so probe runs do not lengthen as
// flows open and close; internal/reactive's invitation index does the same).
//
// A source's home slot is the top bits of src × mult mod 2^32, for an odd
// multiplier the detector draws at random (srcMultiplier). Multiply-shift
// hashing is universal: two distinct sources share a home with probability at
// most 2/len(slots) over all odd multipliers (about 10/len(slots) over those
// srcMultiplier keeps), so sources crafted to share one run under a known
// multiplier scatter under a drawn one. Universal is not random: about one
// drawn multiplier in a hundred still leaves such a set a run of 60 or more
// (TestSourceTableCraftedRuns). Structured source sets spread evenly:
// sources that differ only in their top bits (a shared suffix, a stride of
// 2^16 or 2^24 covering the space above it) land in distinct slots under
// every odd multiplier, and a block of consecutive sources (a prefix swept in
// order) is what srcMultiplier screens the multiplier for. Nothing the
// detector emits depends on mult: expiry and FlushAll walk the LRU list,
// never the table.
type srcTable struct {
	slots []srcSlot // a power of two long; f == nil marks an empty slot
	n     int       // flows in the table
	mult  uint32    // odd
	shift uint8     // 32 − log2(len(slots))
}

// srcSlot is 16 bytes: four of them share a cache line.
type srcSlot struct {
	src uint32
	f   *flow
}

const minSrcSlots = 64

func newSrcTable(mult uint32) srcTable {
	t := srcTable{mult: mult | 1}
	t.resize(minSrcSlots)
	return t
}

// srcMultiplier draws odd multipliers from random until one spreads blocks of
// consecutive sources evenly. A block C, C+1, … lands at C·a + i·a mod 2^32,
// the multiples of α = a/2^32 round a circle; by the three-distance theorem
// they fall evenly, at most a few to any stretch of slots, exactly when the
// partial quotients of α's continued fraction are small. A multiplier near a
// fraction p/q with small q instead strings the block into q dense chains: at
// load ½ about one odd multiplier in fifteen builds probe runs of 9 to
// several hundred over a /16 swept in order. The screen keeps multipliers
// whose partial quotients are at most 16 up to convergents of 2^24: about one
// odd multiplier in five, under which blocks of 2^8 … 2^20 sources, at load ½,
// have measured at most 9 probes from home.
func srcMultiplier(random func() uint64) uint32 {
	for {
		if a := uint32(random()) | 1; spreadsBlocks(a) {
			return a
		}
	}
}

func spreadsBlocks(a uint32) bool {
	num, den := uint64(a), uint64(1)<<32
	for q, qPrev := uint64(1), uint64(0); num != 0 && q < 1<<24; {
		c := den / num
		if c > 16 {
			return false
		}
		den, num = num, den%num
		q, qPrev = c*q+qPrev, q
	}
	return true
}

func (t *srcTable) home(src uint32) uint32 { return src * t.mult >> t.shift }

// find returns src's slot: the one holding its flow, or the empty slot that
// ends its probe run, where insert puts it.
func (t *srcTable) find(src uint32) *srcSlot {
	mask := uint32(len(t.slots) - 1)
	for i := t.home(src); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.f == nil || s.src == src {
			return s
		}
	}
}

// insert fills s, the empty slot find returned for f.src, with f. The slot
// pointer is stale afterwards.
func (t *srcTable) insert(s *srcSlot, f *flow) {
	*s = srcSlot{f.src, f}
	if t.n++; t.n*2 > len(t.slots) {
		t.resize(2 * len(t.slots))
	}
}

// remove takes f, which is in the table, out of it, pulling the rest of its
// probe run back over the hole.
func (t *srcTable) remove(f *flow) {
	mask := uint32(len(t.slots) - 1)
	i := t.home(f.src)
	for t.slots[i].f != f {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j].f != nil; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless that would put it
		// before its home: it moves when it sits at least j−i past home.
		if (j-t.home(t.slots[j].src))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = srcSlot{}
	t.n--
}

// resize moves every flow into a new table of size slots.
func (t *srcTable) resize(size int) {
	old := t.slots
	t.slots = make([]srcSlot, size)
	t.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	mask := uint32(size - 1)
	for _, s := range old {
		if s.f == nil {
			continue
		}
		i := t.home(s.src)
		for t.slots[i].f != nil {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
