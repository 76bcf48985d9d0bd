package query

import (
	"math"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// An executor's working memory — its group table, its distinct sets and
// quantile samples, the ranking arrays of Finish — comes from the free lists
// below and goes back to them when Finish renders the result or Merge has
// consumed a partial, so a warm query regrows nothing it had the last time.
// They are plain bounded lists, like the archive's rowsFree and scratchFree,
// not sync.Pools: the collector empties a pool, and what a query allocated
// would then depend on where the last collection fell.
//
// A list holds buffers by size class: class c holds buffers of exactly 2^c
// elements, and a request for n elements takes a buffer of the smallest
// class that holds n. What the lists keep is bounded three ways:
//
//   - maxKeptBytes caps a kept buffer. The largest group table a 16-bit
//     grouping reaches is its direct layout, 2^16 · 24 B per aggregate: 1.5
//     MiB for one aggregate, 3 MiB for two, and 4 MiB is the class above
//     that. A quantile's samples are kept up to 2^19 of them; a decade's 10^8
//     (800 MB) go to the collector.
//   - classWindow caps the buffers kept in one class, as rowsFree's window
//     caps its sets: a query holds its total and one partial at a time, and
//     a group_by year of ten distinct sets or sample arrays each holds ten
//     buffers of a class at most; 32 leaves room for that twice over.
//   - maxIdleBytes caps what all the lists keep together. A doubling chain
//     of buffers sums to under twice its last one, so one executor's chain
//     in one list is under 2 · maxKeptBytes; maxIdleBytes keeps two such
//     chains, the total's and a partial's, of the largest buffers.
//
// A buffer given back past either of the first two goes to the collector.
// One that would take the lists past maxIdleBytes evicts idle buffers,
// the largest of all the lists first, until it fits: a shape the lists have
// not seen is served from them once it is warm, and what stale shapes left
// idle goes to the collector instead.
const (
	maxKeptBytes = 4 << 20
	classWindow  = 32
	maxIdleBytes = 4 * maxKeptBytes
	minClass     = 4  // 16 elements: the smallest table, set and sample array
	maxClass     = 20 // 2^20 int32s, the most elements maxKeptBytes holds
)

var (
	int32s   = newFreeList[int32](nil)    // hashed slots, Finish's order, ranks
	keys     = newFreeList[groupKey](nil) // hashed keys
	states   = newFreeList(poisonStates)  // group states, hashed and direct
	uint64s  = newFreeList[uint64](nil)   // the direct bitmap, distinct-set slots
	float64s = newFreeList[float64](nil)  // quantile samples, Finish's scalars
	idle     atomic.Int64                 // bytes the lists hold, all of them

	lists = [...]interface {
		largestIdle() int
		dropLargest() bool
	}{int32s, keys, states, uint64s, float64s}
)

// poisonFree, when set (by tests only), scribbles every buffer as it goes
// back to a free list, so that anything still reading it — a result that
// aliased group state, an executor used after Finish — reads sentinels
// instead of another query's state.
var poisonFree atomic.Bool

// freeList is one element type's free list: a channel per size class whose
// buffers are small enough to keep.
type freeList[T any] struct {
	class  [maxClass + 1]chan []T
	poison func([]T) // scribbles a buffer that holds pointers; nil for scribble
}

func newFreeList[T any](poison func([]T)) *freeList[T] {
	l := &freeList[T]{poison: poison}
	for c := minClass; c <= maxClass && classBytes[T](c) <= maxKeptBytes; c++ {
		l.class[c] = make(chan []T, classWindow)
	}
	return l
}

func classBytes[T any](c int) int {
	var zero T
	return int(unsafe.Sizeof(zero)) << c
}

// take returns a buffer of n elements from the smallest class that holds
// them, kept or new. A kept one holds what it held when it was given back
// (or sentinels): the caller clears what it reads before writing.
func (l *freeList[T]) take(n int) []T {
	c := max(bits.Len(uint(n-1)), minClass)
	if c > maxClass || l.class[c] == nil {
		return make([]T, n)
	}
	select {
	case b := <-l.class[c]:
		idle.Add(-int64(classBytes[T](c)))
		return b[:n]
	default:
		return make([]T, n, 1<<c)
	}
}

// give returns b to its class, or to the collector when b is of no class,
// the class's window is full or the lists hold maxIdleBytes already. The
// caller must not use b afterwards, and leaves no pointer in it: an idle
// buffer keeps nothing else alive.
func (l *freeList[T]) give(b []T) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	if poisonFree.Load() {
		if l.poison != nil {
			l.poison(b)
		} else {
			scribble(b)
		}
	}
	c := bits.TrailingZeros(uint(cap(b)))
	if cap(b) != 1<<c || c < minClass || c > maxClass || l.class[c] == nil {
		return
	}
	size := int64(classBytes[T](c))
	if len(l.class[c]) == classWindow {
		return
	}
	for idle.Add(size) > maxIdleBytes {
		idle.Add(-size)
		if !evictLargest() {
			return
		}
	}
	select {
	case l.class[c] <- b:
	default:
		idle.Add(-size)
	}
}

// largestIdle returns the size in bytes of l's largest idle buffer, 0 when
// l holds none.
func (l *freeList[T]) largestIdle() int {
	for c := maxClass; c >= minClass; c-- {
		if ch := l.class[c]; ch != nil && len(ch) > 0 {
			return classBytes[T](c)
		}
	}
	return 0
}

// dropLargest drops l's largest idle buffer to the collector. It reports
// false when l holds none.
func (l *freeList[T]) dropLargest() bool {
	for c := maxClass; c >= minClass; c-- {
		if ch := l.class[c]; ch != nil && len(ch) > 0 {
			select {
			case <-ch:
				idle.Add(-int64(classBytes[T](c)))
				return true
			default:
			}
		}
	}
	return false
}

// evictLargest drops the largest idle buffer of all the lists to the
// collector. It reports false when the lists hold nothing.
func evictLargest() bool {
	var from interface{ dropLargest() bool }
	size := 0
	for _, l := range lists {
		if n := l.largestIdle(); n > size {
			from, size = l, n
		}
	}
	return from != nil && from.dropLargest()
}

// grow returns s with room for n more elements: s itself when it has it,
// else a buffer of the class that holds len(s)+n with s copied in, s given
// back.
func (l *freeList[T]) grow(s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	t := l.take(len(s) + n)[:len(s)]
	copy(t, s)
	l.give(s)
	return t
}

// poisonByte is what scribble writes: no count, coordinate or key a test
// expects is made of it.
const poisonByte = 0xdb

// scribble overwrites b, which holds no pointers, with poisonByte.
func scribble[T any](b []T) {
	var zero T
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b))), len(b)*int(unsafe.Sizeof(zero)))
	for i := range raw {
		raw[i] = poisonByte
	}
}

// poisonStates scribbles group states' counters; their extension pointers,
// which give finds nil, stay nil.
func poisonStates(b []aggState) {
	const n = poisonByte * 0x0101010101010101
	for i := range b {
		b[i] = aggState{n: n, f: math.Float64frombits(n)}
	}
}
