package reactive

import "math/bits"

// tuple keys responder state by the full connection 4-tuple.
type tuple struct {
	src, dst uint32
	sp, dp   uint16
}

// slot is one invitation, at its place in invitation order.
type slot struct {
	expiry int64
	k      tuple
	// live is cleared when the invitation lapses in place (a phase-two
	// segment found it expired): the slot keeps its turn in the ring but
	// evicts nobody when that turn comes.
	live bool
}

// table is the responder's invitation state: a fixed ring of slots in
// invitation order, which is the eviction order, and an open-addressed index
// from tuple to ring position. Both are allocated in full by newTable and
// never grow, so the responder's memory is capacity slots however the
// traffic churns, and the steady state of a busy telescope — ring full, one
// eviction per invitation — is one probe run to miss, one to unlink the
// head's tuple and one store, in two or three cache lines.
//
// Capacity counts slots, not live invitations: a slot whose invitation
// lapsed in place stays taken until the head reaches it.
type table struct {
	slots []slot
	head  int // the oldest slot
	used  int // slots taken from head on, live or lapsed
	live  int // invitations that are live

	// index holds tag<<32 | position+1 per entry, 0 for empty, with linear
	// probing from tag>>shift and backward-shift deletion (no tombstones, so
	// probe runs do not lengthen as the table churns). It is a power of two
	// at least twice the capacity: every probe run ends at an empty entry.
	// The tag is the tuple's whole 32-bit hash, so a probe compares tags
	// without touching a slot and deletion finds an entry's home without
	// rehashing its tuple.
	index []uint64
	mask  uint32
	shift uint32
	seed  uint64
}

func newTable(capacity int, seed uint64) *table {
	n := 2 << bits.Len(uint(capacity-1)) // power of two in [2·capacity, 4·capacity)
	return &table{
		slots: make([]slot, capacity),
		index: make([]uint64, n),
		mask:  uint32(n - 1),
		shift: uint32(32 - bits.TrailingZeros(uint(n))),
		// Policy seeds are small integers in practice; mixed, two of them
		// share no structure hash could carry through to the index.
		seed: mix64(seed),
	}
}

// hash keys the index. The seed enters before the first multiplication and
// the ports, spread over the word by a multiplication of their own (off the
// critical path), before the second, so which tuples share a probe run
// depends on the seed: a sender who knows the function but not the seed
// cannot craft 4-tuples that pile into one run. The spreading matters: ports
// XORed in as they are reach the index through one multiplication only, and
// a set of tuples crafted against one seed then builds runs of dozens under
// others (TestSeededHashBoundsCraftedRuns holds them to 8).
func (tb *table) hash(k tuple) uint32 {
	x := (uint64(k.src)<<32 | uint64(k.dst)) ^ tb.seed
	x *= 0x9e3779b97f4a7c15
	x ^= x>>32 ^ (uint64(k.sp)<<16|uint64(k.dp))*0x94d049bb133111eb
	x *= 0xbf58476d1ce4e5b9
	return uint32(x >> 32)
}

// find returns the ring position of k's live invitation, or -1. tag is
// hash(k).
func (tb *table) find(k tuple, tag uint32) int {
	for i := tag >> tb.shift; ; i = (i + 1) & tb.mask {
		e := tb.index[i]
		if e == 0 {
			return -1
		}
		if uint32(e>>32) == tag {
			if pos := int(uint32(e)) - 1; tb.slots[pos].k == k {
				return pos
			}
		}
	}
}

// insert invites k, which the caller has not found in the table, at the
// ring's tail. When every slot is taken the head slot is reused; if the
// invitation there was still live it is evicted, and its expiry returned so
// the caller can tell a lapsed one from one cut short.
func (tb *table) insert(k tuple, tag uint32, expiry int64) (evicted bool, evictedExpiry int64) {
	pos := tb.head + tb.used
	if pos >= len(tb.slots) {
		pos -= len(tb.slots)
	}
	if tb.used == len(tb.slots) {
		if old := &tb.slots[pos]; old.live {
			tb.unlink(pos)
			evicted, evictedExpiry = true, old.expiry
		}
		tb.head++
		if tb.head == len(tb.slots) {
			tb.head = 0
		}
	} else {
		tb.used++
	}
	tb.slots[pos] = slot{expiry: expiry, k: k, live: true}
	tb.live++
	i := tag >> tb.shift
	for tb.index[i] != 0 {
		i = (i + 1) & tb.mask
	}
	tb.index[i] = uint64(tag)<<32 | uint64(pos+1)
	return evicted, evictedExpiry
}

// lapse ends the live invitation at pos where it stands.
func (tb *table) lapse(pos int) {
	tb.unlink(pos)
	tb.slots[pos].live = false
}

// unlink removes the live slot at pos from the index, pulling the rest of
// its probe run back over the hole.
func (tb *table) unlink(pos int) {
	tb.live--
	i := tb.hash(tb.slots[pos].k) >> tb.shift
	for int(uint32(tb.index[i])) != pos+1 {
		if tb.index[i] == 0 {
			panic("reactive: live invitation missing from the index")
		}
		i = (i + 1) & tb.mask
	}
	for j := (i + 1) & tb.mask; tb.index[j] != 0; j = (j + 1) & tb.mask {
		e := tb.index[j]
		// The entry at j may fill the hole at i unless that would put it
		// before its home: it moves when it sits at least j-i past home.
		if home := uint32(e>>32) >> tb.shift; (j-home)&tb.mask >= (j-i)&tb.mask {
			tb.index[i] = e
			i = j
		}
	}
	tb.index[i] = 0
}
