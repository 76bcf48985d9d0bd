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
// from tuple to ring sequence number. Both are allocated in full by newTable
// and never grow, so the responder's memory is capacity slots however the
// traffic churns, and the steady state of a busy telescope — ring full, one
// eviction per invitation — is one probe run to miss and two stores, one in
// the ring and one in the index, in two or three cache lines.
//
// Eviction does not touch the index. Every invitation takes the next
// sequence number, and the used slots of the ring hold the sequence numbers
// first to first+used-1; an index entry whose number has left that window
// names an invitation that was evicted, and is stale by its own bits. Walks
// step over stale entries, an invitation takes the first one its walk
// passed, and the invitation that would make ⌈capacity/4⌉ of them drops them
// all in one sequential pass first (purge). So fewer than ⌈capacity/4⌉ stale
// entries stand beside at most capacity live ones between two calls: the
// index, at least twice the capacity, stays under load 0.625. A purge also
// runs whenever first reaches a multiple of 2^30 with stale entries about,
// so none lives long enough for its number to come round into the window.
//
// Capacity counts slots, not live invitations: a slot whose invitation
// lapsed in place stays taken until the head reaches it.
type table struct {
	slots []slot
	head  int    // the oldest slot
	first uint32 // its sequence number
	used  int    // slots taken from head on, live or lapsed
	live  int    // invitations that are live

	stale      int // stale index entries
	purgeEvery int // ⌈capacity/4⌉: the stale entries that make a purge

	// index holds (tag|1)<<32 | sequence number per entry, 0 for empty, with
	// linear probing from tag>>shift and backward-shift deletion for lapsed
	// invitations (no tombstones). It is a power of two at least twice the
	// capacity: every probe run ends at an empty entry. The tag is the
	// tuple's 32-bit hash with its low bit set, so that no entry is 0: a
	// probe compares tags without touching a slot, and deletion and the
	// purge find an entry's home without rehashing its tuple (the home is
	// the tag's top bits, which the low bit does not reach).
	index []uint64
	mask  uint32
	shift uint32
	seed  uint64
}

func newTable(capacity int, seed uint64) *table {
	n := 2 << bits.Len(uint(capacity-1)) // power of two in [2·capacity, 4·capacity)
	return &table{
		slots:      make([]slot, capacity),
		purgeEvery: (capacity + 3) / 4,
		index:      make([]uint64, n),
		mask:       uint32(n - 1),
		shift:      uint32(32 - bits.TrailingZeros(uint(n))),
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

// slot returns the ring position of the invitation with sequence number
// seq, or false when the entry naming it is stale.
func (tb *table) slot(seq uint32) (int, bool) {
	off := seq - tb.first
	if off >= uint32(tb.used) {
		return 0, false
	}
	pos := tb.head + int(off)
	if pos >= len(tb.slots) {
		pos -= len(tb.slots)
	}
	return pos, true
}

// find returns the ring position of k's live invitation and the index entry
// naming it. When k has none it returns -1 and the entry an invitation of k
// goes to: the first stale one the walk passed, else the empty one that
// ended it. tag is hash(k).
func (tb *table) find(k tuple, tag uint32) (pos int, at uint32) {
	const none = ^uint32(0)
	want, free := tag|1, none
	for i := tag >> tb.shift; ; i = (i + 1) & tb.mask {
		e := tb.index[i]
		if e == 0 {
			if free == none {
				free = i
			}
			return -1, free
		}
		if uint32(e>>32) == want {
			if pos, ok := tb.slot(uint32(e)); ok && tb.slots[pos].k == k {
				return pos, i
			}
		}
		if free == none && uint32(e)-tb.first >= uint32(tb.used) {
			free = i
		}
	}
}

// invite makes k's invitation live until expiry. A live one keeps its turn
// in the ring and takes the later deadline; otherwise k is invited at the
// ring's tail. When every slot is taken the head slot is reused; if the
// invitation there was still live it is evicted, and its expiry returned so
// the caller can tell a lapsed one from one cut short.
func (tb *table) invite(k tuple, expiry int64) (evicted bool, evictedExpiry int64) {
	tag := tb.hash(k)
	pos, at := tb.find(k, tag)
	if pos >= 0 {
		tb.slots[pos].expiry = expiry
		return false, 0
	}
	pos = tb.head + tb.used
	if pos >= len(tb.slots) {
		pos -= len(tb.slots)
	}
	if tb.used == len(tb.slots) {
		// The head's index entry goes stale as first moves past it.
		if old := &tb.slots[pos]; old.live {
			tb.live--
			tb.stale++
			evicted, evictedExpiry = true, old.expiry
		}
		tb.head++
		if tb.head == len(tb.slots) {
			tb.head = 0
		}
		tb.first++
	} else {
		tb.used++
	}
	tb.slots[pos] = slot{expiry: expiry, k: k, live: true}
	tb.live++
	if tb.index[at] != 0 {
		tb.stale--
	} else if tb.stale == tb.purgeEvery || tb.stale > 0 && tb.first%(1<<30) == 0 {
		// Purged before k's entry goes in, the index has an empty entry to
		// start from even at capacity 1; k then takes the first empty entry
		// from its home.
		tb.purge()
		for at = tag >> tb.shift; tb.index[at] != 0; at = (at + 1) & tb.mask {
		}
	}
	tb.index[at] = uint64(tag|1)<<32 | uint64(tb.first+uint32(tb.used)-1)
	return evicted, evictedExpiry
}

// lapse ends the live invitation at ring position pos, which the index
// entry at names, where it stands.
func (tb *table) lapse(pos int, at uint32) {
	tb.slots[pos].live = false
	tb.live--
	tb.remove(at)
}

// remove empties index entry i, pulling the rest of its probe run back over
// the hole.
func (tb *table) remove(i uint32) {
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

// purge drops every stale entry in one pass over the index. The pass starts
// at an empty entry, which no probe run crosses. Until it drops an entry, it
// only reads: a live entry with no hole between its home and itself stays
// where it is, and the test for a stale entry takes one branch, seldom
// taken, whether the entry is empty, stale or live. From a dropped entry to
// the end of its run it remembers the last entry it emptied: a live entry
// with that one between its home and itself would be cut off from its home,
// so it moves back to the first empty entry from its home on, and its own
// entry becomes the last emptied one.
func (tb *table) purge() {
	idx, mask, shift := tb.index, tb.mask, tb.shift
	first, used := tb.first, uint32(tb.used)
	start := uint32(0)
	for idx[start] != 0 {
		start++
	}
	for n := uint32(1); n <= mask; n++ {
		j := (start + n) & mask
		e := idx[j]
		drop := e >> 32 & 1 // 0 for an empty entry, whose tag bit is clear
		if uint32(e)-first < used {
			drop = 0
		}
		if drop == 0 {
			continue
		}
		idx[j] = 0
		for last := j; ; {
			n++
			j = (start + n) & mask
			e = idx[j]
			if e == 0 {
				break
			}
			if uint32(e)-first >= used {
				idx[j] = 0
				last = j
				continue
			}
			home := uint32(e>>32) >> shift
			if (j-last)&mask > (j-home)&mask {
				continue
			}
			idx[j] = 0
			for idx[home] != 0 {
				home = (home + 1) & mask
			}
			idx[home] = e
			last = j
		}
	}
	tb.stale = 0
}
