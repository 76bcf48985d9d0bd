package core

import (
	"math/bits"
	"slices"
)

// dstSet is a flow's destination set: which telescope addresses the source
// has hit, and in which phases. It is an open-addressed table with linear
// probing whose one operation, or, ORs a phase bit into a destination and
// reports the bits before and after. There are no deletes: a flow's set only
// grows until the flow closes and reset empties it.
//
// A slot is
//
//	generation (24 bits) | destination (32 bits) | phase bits (8 bits)
//
// and is live when its generation is the table's. reset bumps the generation,
// which frees every slot at once, so emptying a table costs the same whether
// it holds eight slots or maxRecycledSlots; only the reset that would
// overflow the 24 bits clears the table. A table's generation travels with
// it into and out of a dstPool, so no slot ever carries a generation above
// its table's, and a zero slot is never live because generations start at 1.
//
// The home slot is the top bits of a multiplicative (Fibonacci) hash, so
// destinations that agree in their low bits — a telescope's addresses share a
// prefix, a strided scan shares a suffix — still spread over the table. The
// table grows when an insert takes it past three quarters full, which keeps
// a free slot for every probe sequence to end on: 8 B per slot, 10.7–21.3 B
// per destination when it doubles.
type dstSet struct {
	slots []uint64 // length zero or a power of two
	n     int      // live slots
	gen   uint64   // 1 … maxDstGen once slots is non-empty
	shift uint8    // 64 − log2(len(slots))
}

const (
	minDstSlots = 8
	maxDstGen   = 1<<24 - 1
	fibHash     = 0x9E3779B97F4A7C15 // 2^64 / golden ratio
)

// or adds bit to dst's phase bits, inserting dst when it is new, and returns
// the bits before and after. A set that grows takes its table from pool (nil:
// allocate one).
func (s *dstSet) or(dst uint32, bit uint8, pool *dstPool) (old, now uint8) {
	if len(s.slots) == 0 {
		s.grow(pool)
	}
	key := s.gen<<32 | uint64(dst) // a live slot for dst is key<<8 | bits
	mask := uint64(len(s.slots) - 1)
	i := uint64(dst) * fibHash >> s.shift
	for {
		v := s.slots[i]
		if v>>8 == key {
			old = uint8(v)
			s.slots[i] = v | uint64(bit)
			return old, old | bit
		}
		if v>>40 != s.gen {
			break // never used, or left by an earlier generation
		}
		i = (i + 1) & mask
	}
	s.slots[i] = key<<8 | uint64(bit)
	s.n++
	if s.n*4 > len(s.slots)*3 {
		s.grow(pool)
	}
	return 0, bit
}

// grow moves the set into the smallest table pool holds with at least twice
// its slots (at least minDstSlots; a new table of exactly that size when pool
// has none), rehashes the live slots into it under the new table's
// generation, and hands the table it outgrew to pool.
func (s *dstSet) grow(pool *dstPool) {
	next := pool.take(max(2*len(s.slots), minDstSlots))
	mask := uint64(len(next.slots) - 1)
	for _, v := range s.slots {
		if v>>40 != s.gen {
			continue
		}
		i := uint64(uint32(v>>8)) * fibHash >> next.shift
		for next.slots[i]>>40 == next.gen {
			i = (i + 1) & mask
		}
		next.slots[i] = next.gen<<40 | v&(1<<40-1)
	}
	next.n = s.n
	pool.put(*s)
	*s = next
}

// reset empties the set and keeps its table.
func (s *dstSet) reset() {
	s.n = 0
	if s.gen++; s.gen > maxDstGen {
		clear(s.slots)
		s.gen = 1
	}
}

// release is what a closing flow does with its table: one of minDstSlots
// stays with the set (reset empties it at reuse), a larger one goes to pool.
func (s *dstSet) release(pool *dstPool) {
	if len(s.slots) > minDstSlots {
		pool.put(*s)
		*s = dstSet{}
	}
}

// dstPool keeps a detector's idle destination tables by size, for the next
// set that grows: a campaign opened from behind noise flows takes the table
// an earlier campaign grew instead of regrowing from eight slots, and a
// single-packet flow never inherits a large one. idle[k] holds tables of
// minDstSlots<<k slots, at most maxPooledTables of each size from minDstSlots
// to maxRecycledSlots; the rest go back to the collector. A nil pool
// allocates on take and keeps nothing.
type dstPool struct {
	idle [dstPoolSizes][]dstSet
}

const dstPoolSizes = 11 // minDstSlots … maxRecycledSlots

// take returns an empty table of at least size slots, a power of two.
func (p *dstPool) take(size int) dstSet {
	if p != nil {
		for k := bits.TrailingZeros(uint(size / minDstSlots)); k < dstPoolSizes; k++ {
			if n := len(p.idle[k]); n > 0 {
				s := p.idle[k][n-1]
				p.idle[k] = p.idle[k][:n-1]
				s.reset()
				return s
			}
		}
	}
	return dstSet{
		slots: make([]uint64, size),
		gen:   1,
		shift: uint8(64 - bits.TrailingZeros(uint(size))),
	}
}

// put keeps s's table, with its generation, for a later take.
func (p *dstPool) put(s dstSet) {
	if p == nil || len(s.slots) == 0 || len(s.slots) > maxRecycledSlots {
		return
	}
	if k := bits.TrailingZeros(uint(len(s.slots) / minDstSlots)); len(p.idle[k]) < maxPooledTables {
		p.idle[k] = append(p.idle[k], s)
	}
}

// inlinePorts is how many distinct ports a flow keeps in its own struct
// before its port set spills to a bitmap.
const inlinePorts = 8

// portBitmap has one bit per TCP/UDP port: 8 KiB.
type portBitmap [1 << 16 / 64]uint64

// portSet is a flow's distinct destination ports. The first inlinePorts live
// in the flow itself, found by a scan of at most eight uint16s, so the common
// few-port flow touches no second cache line; the ninth distinct port moves
// the set into a portBitmap, after which a vertical sweep costs one bit test
// per packet.
type portSet struct {
	n      int                 // distinct ports
	inline [inlinePorts]uint16 // the ports, in arrival order, while bits == nil
	bits   *portBitmap         // the ports once there are more than inlinePorts
}

// add inserts port; a set that spills takes its bitmap from pool.
func (s *portSet) add(port uint16, pool *bitmapPool) {
	if b := s.bits; b != nil {
		w, m := port>>6, uint64(1)<<(port&63)
		if b[w]&m == 0 {
			b[w] |= m
			s.n++
		}
		return
	}
	for _, q := range s.inline[:s.n] {
		if q == port {
			return
		}
	}
	if s.n < inlinePorts {
		s.inline[s.n] = port
		s.n++
		return
	}
	b := pool.get()
	for _, q := range s.inline {
		b[q>>6] |= 1 << (q & 63)
	}
	b[port>>6] |= 1 << (port & 63)
	s.bits = b
	s.n++
}

// reset empties the set; a spilled set's bitmap goes back to pool.
func (s *portSet) reset(pool *bitmapPool) {
	if s.bits != nil {
		pool.put(s.bits)
	}
	*s = portSet{}
}

// sorted returns the ports ascending in a slice of its own.
func (s *portSet) sorted() []uint16 {
	out := make([]uint16, 0, s.n)
	if s.bits == nil {
		out = append(out, s.inline[:s.n]...)
		slices.Sort(out)
		return out
	}
	for w, word := range s.bits {
		for ; word != 0; word &= word - 1 {
			out = append(out, uint16(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return out
}

// bitmapPool keeps a detector's idle port bitmaps, zeroed, for the next flow
// that spills. At most maxPooledBitmaps wait here; the rest go back to the
// collector. A nil pool allocates on get.
type bitmapPool struct {
	idle []*portBitmap
}

func (p *bitmapPool) get() *portBitmap {
	if p == nil || len(p.idle) == 0 {
		return new(portBitmap)
	}
	b := p.idle[len(p.idle)-1]
	p.idle = p.idle[:len(p.idle)-1]
	return b
}

func (p *bitmapPool) put(b *portBitmap) {
	if len(p.idle) < maxPooledBitmaps {
		*b = portBitmap{}
		p.idle = append(p.idle, b)
	}
}
