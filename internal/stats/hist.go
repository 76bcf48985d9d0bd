package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Histogram is a fixed-bin linear histogram over [Min, Max).
type Histogram struct {
	Min, Max float64
	Counts   []uint64
	// Under and Over count samples outside [Min, Max).
	Under, Over uint64
	total       uint64
}

// NewHistogram creates a histogram with bins equal-width bins over
// [min, max). It panics if bins <= 0 or max <= min.
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	if max <= min {
		panic("stats: histogram needs max > min")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]uint64, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Min:
		h.Under++
	case x >= h.Max:
		h.Over++
	default:
		i := int(float64(len(h.Counts)) * (x - h.Min) / (h.Max - h.Min))
		if i >= len(h.Counts) {
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of observations, including out-of-range ones.
func (h *Histogram) Total() uint64 { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + w*(float64(i)+0.5)
}

// LogHistogram buckets positive values into logarithmically spaced bins,
// which is how the paper presents speed distributions that span six orders
// of magnitude.
type LogHistogram struct {
	// base-10 exponent of the first bin's lower edge.
	MinExp int
	// bins per decade.
	PerDecade int
	Counts    []uint64
	Under     uint64
	total     uint64
}

// NewLogHistogram buckets [10^minExp, 10^maxExp) with perDecade bins per
// factor of ten.
func NewLogHistogram(minExp, maxExp, perDecade int) *LogHistogram {
	if maxExp <= minExp || perDecade <= 0 {
		panic("stats: invalid log histogram shape")
	}
	return &LogHistogram{
		MinExp:    minExp,
		PerDecade: perDecade,
		Counts:    make([]uint64, (maxExp-minExp)*perDecade),
	}
}

// Add records one observation; non-positive and below-range values count as
// Under, above-range values clamp to the last bin.
func (l *LogHistogram) Add(x float64) {
	l.total++
	if x <= 0 {
		l.Under++
		return
	}
	pos := (math.Log10(x) - float64(l.MinExp)) * float64(l.PerDecade)
	if pos < 0 {
		l.Under++
		return
	}
	i := int(pos)
	if i >= len(l.Counts) {
		i = len(l.Counts) - 1
	}
	l.Counts[i]++
}

// Total returns the number of observations.
func (l *LogHistogram) Total() uint64 { return l.total }

// BinLower returns the lower edge of bin i.
func (l *LogHistogram) BinLower(i int) float64 {
	return math.Pow(10, float64(l.MinExp)+float64(i)/float64(l.PerDecade))
}

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

// Welford tracks streaming mean and variance without storing samples.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running unbiased variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the running standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }
