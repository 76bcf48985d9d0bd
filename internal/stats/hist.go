package stats

import (
	"fmt"
	"slices"
	"sort"
)

// Counter tallies occurrences of comparable keys and reports top-k rankings;
// the workhorse behind every "top ports by ..." table.
type Counter[K comparable] struct {
	m map[K]uint64
}

// NewCounter returns an empty counter.
func NewCounter[K comparable]() *Counter[K] {
	return &Counter[K]{m: make(map[K]uint64)}
}

// Add increments key by n.
func (c *Counter[K]) Add(key K, n uint64) { c.m[key] += n }

// Inc increments key by one.
func (c *Counter[K]) Inc(key K) { c.m[key]++ }

// Get returns the count for key.
func (c *Counter[K]) Get(key K) uint64 { return c.m[key] }

// Len returns the number of distinct keys.
func (c *Counter[K]) Len() int { return len(c.m) }

// Total returns the sum of all counts.
func (c *Counter[K]) Total() uint64 {
	var t uint64
	for _, v := range c.m {
		t += v
	}
	return t
}

// KV is a key with its count.
type KV[K comparable] struct {
	Key   K
	Count uint64
}

// TopK returns the k highest-count entries, ties broken by insertion-
// independent key order (formatted key string) so results are deterministic.
// It keeps the best k seen so far, in order, while walking the map: an entry
// below the current cut is rejected on its count alone, so keys are formatted
// only where counts tie. An accepted entry costs O(k), which suits the
// rankings this serves (k of 5 to 15 over up to 65,536 ports).
func (c *Counter[K]) TopK(k int) []KV[K] {
	if k > len(c.m) {
		k = len(c.m)
	}
	top := make([]KV[K], 0, k+1)
	if k <= 0 {
		return top
	}
	before := func(a, b KV[K]) bool {
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return fmt.Sprint(a.Key) < fmt.Sprint(b.Key)
	}
	for key, v := range c.m {
		kv := KV[K]{key, v}
		if len(top) == k && !before(kv, top[k-1]) {
			continue
		}
		i := sort.Search(len(top), func(i int) bool { return before(kv, top[i]) })
		top = slices.Insert(top, i, kv)
		if len(top) > k {
			top = top[:k]
		}
	}
	return top
}

// Share returns key's count as a fraction of the total (0 if empty).
func (c *Counter[K]) Share(key K) float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.m[key]) / float64(t)
}

// Keys returns all keys in unspecified order.
func (c *Counter[K]) Keys() []K {
	ks := make([]K, 0, len(c.m))
	for k := range c.m {
		ks = append(ks, k)
	}
	return ks
}
