package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestCounter(t *testing.T) {
	c := NewCounter[uint16]()
	c.Inc(80)
	c.Inc(80)
	c.Add(443, 5)
	c.Inc(22)
	if c.Get(80) != 2 || c.Get(443) != 5 || c.Get(9999) != 0 {
		t.Fatal("Get mismatch")
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Total() != 8 {
		t.Fatalf("Total = %d", c.Total())
	}
	top := c.TopK(2)
	if len(top) != 2 || top[0].Key != 443 || top[1].Key != 80 {
		t.Fatalf("TopK = %v", top)
	}
	if s := c.Share(443); !almost(s, 5.0/8.0, 1e-12) {
		t.Fatalf("Share = %v", s)
	}
	if got := len(c.Keys()); got != 3 {
		t.Fatalf("Keys len = %d", got)
	}
}

func TestCounterTopKDeterministicTies(t *testing.T) {
	// Ties are broken by formatted key, so repeated runs over the same data
	// must yield the identical ranking regardless of map iteration order.
	var first []KV[int]
	for trial := 0; trial < 10; trial++ {
		c := NewCounter[int]()
		for k := 0; k < 20; k++ {
			c.Add(k, 7) // all tied
		}
		top := c.TopK(5)
		if first == nil {
			first = top
			continue
		}
		for i := range top {
			if top[i] != first[i] {
				t.Fatalf("tie-break not deterministic: %v vs %v", top, first)
			}
		}
	}
}

func TestCounterTopKOverflow(t *testing.T) {
	c := NewCounter[string]()
	c.Inc("a")
	if got := c.TopK(10); len(got) != 1 {
		t.Fatalf("TopK beyond size = %v", got)
	}
	empty := NewCounter[string]()
	if s := empty.Share("x"); s != 0 {
		t.Fatalf("empty Share = %v", s)
	}
}

// refTopK is the full-sort ranking TopK replaced: every entry sorted by count
// descending, then by formatted key.
func refTopK[K comparable](c *Counter[K], k int) []KV[K] {
	all := make([]KV[K], 0, c.Len())
	for _, key := range c.Keys() {
		all = append(all, KV[K]{key, c.Get(key)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return fmt.Sprint(all[i].Key) < fmt.Sprint(all[j].Key)
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// TestCounterTopKSelection: the bounded selection returns what sorting the
// whole counter did — for ties at the cut, k = 0, k beyond the counter, and
// random counters with few distinct counts (so ties are everywhere).
func TestCounterTopKSelection(t *testing.T) {
	ties := NewCounter[uint16]()
	ties.Add(80, 9)
	for _, p := range []uint16{9, 10, 100, 11, 2} {
		ties.Add(p, 4) // formatted order: "10" < "100" < "11" < "2" < "9"
	}
	ties.Add(7, 1)
	want := []KV[uint16]{{80, 9}, {10, 4}, {100, 4}}
	if got := ties.TopK(3); !reflect.DeepEqual(got, want) {
		t.Fatalf("ties at the cut: got %v, want %v", got, want)
	}
	if got := ties.TopK(0); len(got) != 0 {
		t.Fatalf("TopK(0) = %v", got)
	}
	if got := ties.TopK(100); !reflect.DeepEqual(got, refTopK(ties, 100)) || len(got) != ties.Len() {
		t.Fatalf("TopK beyond Len = %v", got)
	}

	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		c := NewCounter[int]()
		for n := r.Intn(300); n > 0; n-- {
			c.Add(r.Intn(150), uint64(r.Intn(4)))
		}
		for _, k := range []int{1, 5, 15, c.Len(), c.Len() + 3} {
			if got, want := c.TopK(k), refTopK(c, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d:\n got %v\nwant %v", trial, k, got, want)
			}
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewCounter[uint16]()
	for i := 0; i < b.N; i++ {
		c.Inc(uint16(i & 1023))
	}
}

func BenchmarkKS2Sample(b *testing.B) {
	a := make([]float64, 1000)
	c := make([]float64, 1000)
	for i := range a {
		a[i] = float64(i)
		c[i] = float64(i) + 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = KS2Sample(a, c)
	}
}
