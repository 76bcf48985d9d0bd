// Package sketch provides memory-bounded streaming summaries for telescope-
// scale analysis: a HyperLogLog cardinality estimator and a Space-Saving
// top-k heavy-hitter tracker.
//
// The paper's dataset is 45 billion packets from 45 million sources; exact
// per-port source sets at that scale do not fit in memory. The simulator's
// exact counters (internal/stats) remain the default — the analyses are
// validated against them — but SketchedSummary in internal/analysis shows
// the same tables computed in O(KB) of state, and the ablation benchmarks
// quantify the trade.
package sketch

import (
	"cmp"
	"math"
	"slices"
)

// hll precision: 2^14 registers = 16 KiB, standard error ~0.81%.
const (
	hllP = 14
	hllM = 1 << hllP
)

// HyperLogLog estimates the number of distinct uint64 values added.
// The zero value is NOT ready; use NewHyperLogLog.
type HyperLogLog struct {
	reg [hllM]uint8
}

// NewHyperLogLog returns an empty estimator.
func NewHyperLogLog() *HyperLogLog { return &HyperLogLog{} }

// mix64 scrambles raw keys; HLL needs uniformly distributed hashes.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// Add inserts a key.
func (h *HyperLogLog) Add(key uint64) {
	x := mix64(key)
	idx := x >> (64 - hllP)
	rest := x<<hllP | 1<<(hllP-1) // ensure termination
	rank := uint8(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	if rank > h.reg[idx] {
		h.reg[idx] = rank
	}
}

// AddUint32 inserts a 32-bit key (e.g. a source address).
func (h *HyperLogLog) AddUint32(key uint32) { h.Add(uint64(key)) }

// Estimate returns the approximate cardinality.
func (h *HyperLogLog) Estimate() uint64 {
	// alpha for m >= 128.
	alpha := 0.7213 / (1 + 1.079/float64(hllM))
	var sum float64
	zeros := 0
	for _, r := range h.reg {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	est := alpha * hllM * hllM / sum
	// Small-range correction: linear counting.
	if est <= 2.5*hllM && zeros > 0 {
		est = hllM * math.Log(float64(hllM)/float64(zeros))
	}
	return uint64(est + 0.5)
}

// Merge folds another estimator into h (union semantics).
func (h *HyperLogLog) Merge(other *HyperLogLog) {
	for i := range h.reg {
		if other.reg[i] > h.reg[i] {
			h.reg[i] = other.reg[i]
		}
	}
}

// TopK tracks approximate heavy hitters with the Space-Saving algorithm:
// at most K counters; when a new key arrives at capacity, the minimum
// counter is reassigned to it and its old count becomes the new key's error
// bound. Every true heavy hitter with frequency > N/K is guaranteed to be
// tracked.
//
// Counters live by value in ents, in slots that never move; heap is a
// min-heap of slot numbers ordered by (count, key), so the eviction victim —
// the smallest count, smallest key among equals — is heap[0], and an Add
// costs a map lookup and at most log K array swaps.
type TopK struct {
	k     int
	slot  map[uint64]int32 // key → index into ents
	ents  []tkEntry
	heap  []int32
	total uint64
}

type tkEntry struct {
	key   uint64
	count uint64
	err   uint64
	pos   int32 // index of this slot in heap
}

// NewTopK creates a tracker with capacity k (clamped to >= 1).
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{k: k, slot: make(map[uint64]int32, k)}
}

// less orders two slots by (count, key) ascending.
func (t *TopK) less(a, b int32) bool {
	ea, eb := &t.ents[a], &t.ents[b]
	if ea.count != eb.count {
		return ea.count < eb.count
	}
	return ea.key < eb.key
}

// down restores the heap below position i after the slot there grew.
func (t *TopK) down(i int) {
	h := t.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && t.less(h[c+1], h[c]) {
			c++
		}
		if !t.less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		t.ents[h[i]].pos = int32(i)
		t.ents[h[c]].pos = int32(c)
		i = c
	}
}

// up restores the heap above position i after a slot was appended there.
func (t *TopK) up(i int) {
	h := t.heap
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		t.ents[h[i]].pos = int32(i)
		t.ents[h[p]].pos = int32(p)
		i = p
	}
}

// Add records one occurrence of key.
func (t *TopK) Add(key uint64) {
	t.total++
	if s, ok := t.slot[key]; ok {
		t.ents[s].count++
		t.down(int(t.ents[s].pos))
		return
	}
	if len(t.ents) < t.k {
		s := int32(len(t.ents))
		t.ents = append(t.ents, tkEntry{key: key, count: 1, pos: s})
		t.heap = append(t.heap, s)
		t.slot[key] = s
		t.up(int(s))
		return
	}
	// Reassign the minimum counter.
	s := t.heap[0]
	e := &t.ents[s]
	delete(t.slot, e.key)
	t.slot[key] = s
	e.key, e.count, e.err = key, e.count+1, e.count
	t.down(0)
}

// Merge folds another tracker into t, combining partial summaries computed
// over disjoint substreams (e.g. one per archive segment). Counts for keys
// both sides track add exactly; a key only one side tracks is charged the
// other side's eviction floor (its minimum count when at capacity, zero
// below it), which keeps Count an upper bound and Err a valid overestimate
// bound. When neither side has ever evicted, the merge is exact — identical
// to having fed one tracker sequentially. Capacities must match.
func (t *TopK) Merge(o *TopK) {
	if o == nil || o.total == 0 {
		return
	}
	t.total += o.total
	tFloor := t.evictFloor()
	oFloor := o.evictFloor()
	merged := make([]tkEntry, 0, len(t.ents)+len(o.ents))
	for _, e := range t.ents {
		if s, ok := o.slot[e.key]; ok {
			e.count += o.ents[s].count
			e.err += o.ents[s].err
		} else {
			e.count += oFloor
			e.err += oFloor
		}
		merged = append(merged, e)
	}
	for _, oe := range o.ents {
		if _, ok := t.slot[oe.key]; !ok {
			merged = append(merged, tkEntry{key: oe.key, count: oe.count + tFloor, err: oe.err + tFloor})
		}
	}
	if len(merged) > t.k {
		// Keep the k largest (ties broken by key ascending, matching Top).
		slices.SortFunc(merged, func(a, b tkEntry) int { return compareItems(a.item(), b.item()) })
		merged = merged[:t.k]
	}
	t.ents = merged
	t.heap = t.heap[:0]
	clear(t.slot)
	for i := range t.ents {
		t.ents[i].pos = int32(i)
		t.heap = append(t.heap, int32(i))
		t.slot[t.ents[i].key] = int32(i)
	}
	for i := len(t.heap)/2 - 1; i >= 0; i-- {
		t.down(i)
	}
}

// evictFloor is the count any untracked key could have accumulated: the
// minimum tracked count once the tracker has reached capacity, zero before.
func (t *TopK) evictFloor() uint64 {
	if len(t.ents) < t.k {
		return 0
	}
	return t.ents[t.heap[0]].count
}

// Item is one tracked heavy hitter.
type Item struct {
	Key uint64
	// Count is the estimated frequency (an upper bound).
	Count uint64
	// Err bounds the overestimate: true count >= Count - Err.
	Err uint64
}

func (e tkEntry) item() Item { return Item{e.key, e.count, e.err} }

// compareItems orders by estimated count descending, ties by key ascending.
func compareItems(a, b Item) int {
	if a.Count != b.Count {
		return cmp.Compare(b.Count, a.Count)
	}
	return cmp.Compare(a.Key, b.Key)
}

// Top returns up to n tracked items, by estimated count descending
// (ties broken by key for determinism).
func (t *TopK) Top(n int) []Item {
	items := make([]Item, len(t.ents))
	for i, e := range t.ents {
		items[i] = e.item()
	}
	slices.SortFunc(items, compareItems)
	if n > len(items) {
		n = len(items)
	}
	return items[:n]
}

// Total returns the number of Add calls.
func (t *TopK) Total() uint64 { return t.total }
