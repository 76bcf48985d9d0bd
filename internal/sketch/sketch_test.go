package sketch

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/synscan/synscan/internal/rng"
)

func TestHLLAccuracy(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{100, 1000, 10000, 100000, 1000000} {
		h := NewHyperLogLog()
		seen := make(map[uint64]bool, n)
		for len(seen) < n {
			k := r.Uint64()
			seen[k] = true
			h.Add(k)
		}
		est := float64(h.Estimate())
		rel := math.Abs(est-float64(n)) / float64(n)
		// 2^14 registers: standard error 0.81%; allow 4 sigma.
		if rel > 0.04 {
			t.Fatalf("n=%d: estimate %v off by %.2f%%", n, est, rel*100)
		}
	}
}

func TestHLLDuplicatesDoNotInflate(t *testing.T) {
	h := NewHyperLogLog()
	for i := 0; i < 100000; i++ {
		h.AddUint32(uint32(i % 50))
	}
	est := h.Estimate()
	if est < 45 || est > 55 {
		t.Fatalf("estimate %d, want ~50", est)
	}
}

func TestHLLEmpty(t *testing.T) {
	if got := NewHyperLogLog().Estimate(); got != 0 {
		t.Fatalf("empty estimate = %d", got)
	}
}

func TestHLLMerge(t *testing.T) {
	a, b := NewHyperLogLog(), NewHyperLogLog()
	for i := uint64(0); i < 50000; i++ {
		a.Add(i)
	}
	for i := uint64(25000); i < 75000; i++ {
		b.Add(i)
	}
	a.Merge(b)
	est := float64(a.Estimate())
	if math.Abs(est-75000)/75000 > 0.04 {
		t.Fatalf("merged estimate %v, want ~75000", est)
	}
}

func TestHLLDeterministic(t *testing.T) {
	f := func(keys []uint64) bool {
		a, b := NewHyperLogLog(), NewHyperLogLog()
		for _, k := range keys {
			a.Add(k)
			b.Add(k)
		}
		return a.Estimate() == b.Estimate()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTopKExactWhenUnderCapacity(t *testing.T) {
	tk := NewTopK(16)
	for i := 0; i < 10; i++ {
		for j := 0; j <= i; j++ {
			tk.Add(uint64(i))
		}
	}
	top := tk.Top(3)
	if len(top) != 3 || top[0].Key != 9 || top[0].Count != 10 || top[0].Err != 0 {
		t.Fatalf("top = %+v", top)
	}
	if top[1].Key != 8 || top[2].Key != 7 {
		t.Fatalf("ordering: %+v", top)
	}
	if tk.Total() != 55 {
		t.Fatalf("total = %d", tk.Total())
	}
}

func TestTopKHeavyHitterGuarantee(t *testing.T) {
	// Space-Saving guarantees: any key with true frequency > N/k is
	// tracked. Stream: 4 heavy keys at ~20% each, plus uniform noise.
	r := rng.New(2)
	tk := NewTopK(64)
	trueCounts := map[uint64]uint64{}
	const n = 200000
	for i := 0; i < n; i++ {
		var key uint64
		if r.Bool(0.8) {
			key = uint64(r.Intn(4)) // heavy
		} else {
			key = 1000 + r.Uint64()%100000 // noise
		}
		tk.Add(key)
		trueCounts[key]++
	}
	top := tk.Top(4)
	seen := map[uint64]bool{}
	for _, it := range top {
		seen[it.Key] = true
		// Count is an upper bound; Count-Err a lower bound.
		if it.Count < trueCounts[it.Key] {
			t.Fatalf("key %d: estimate %d below true %d", it.Key, it.Count, trueCounts[it.Key])
		}
		if it.Count-it.Err > trueCounts[it.Key] {
			t.Fatalf("key %d: lower bound %d above true %d", it.Key, it.Count-it.Err, trueCounts[it.Key])
		}
	}
	for k := uint64(0); k < 4; k++ {
		if !seen[k] {
			t.Fatalf("heavy hitter %d lost (top: %+v)", k, top)
		}
	}
}

func TestTopKCapacityClamp(t *testing.T) {
	tk := NewTopK(0)
	tk.Add(1)
	tk.Add(2)
	if got := tk.Top(10); len(got) != 1 {
		t.Fatalf("capacity clamp: %+v", got)
	}
}

func TestTopKTopBounds(t *testing.T) {
	tk := NewTopK(4)
	tk.Add(7)
	if got := tk.Top(100); len(got) != 1 || got[0].Key != 7 {
		t.Fatalf("Top beyond size: %+v", got)
	}
	if got := tk.Top(0); len(got) != 0 {
		t.Fatalf("Top(0): %+v", got)
	}
}

func TestTopKMergeExactWhenUnsaturated(t *testing.T) {
	// Neither side ever evicts, so merging disjoint substreams must equal
	// feeding one tracker sequentially — the invariant the query engine's
	// per-segment partial aggregation relies on.
	r := rng.New(3)
	const n = 20000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.Uint64() % 500 // 500 distinct keys << capacity 4096
	}
	seq := NewTopK(4096)
	parts := make([]*TopK, 4)
	for i := range parts {
		parts[i] = NewTopK(4096)
	}
	for i, k := range keys {
		seq.Add(k)
		parts[i%len(parts)].Add(k)
	}
	merged := parts[0]
	for _, p := range parts[1:] {
		merged.Merge(p)
	}
	if merged.Total() != seq.Total() {
		t.Fatalf("total: merged %d, sequential %d", merged.Total(), seq.Total())
	}
	mt, st := merged.Top(500), seq.Top(500)
	if len(mt) != len(st) {
		t.Fatalf("sizes: merged %d, sequential %d", len(mt), len(st))
	}
	for i := range mt {
		if mt[i] != st[i] {
			t.Fatalf("item %d: merged %+v, sequential %+v", i, mt[i], st[i])
		}
	}
}

func TestTopKMergeBoundsWhenSaturated(t *testing.T) {
	// With eviction on both sides, merged counts must remain upper bounds
	// and Count-Err lower bounds of true frequencies, and true heavy
	// hitters must survive the merge.
	r := rng.New(4)
	trueCounts := map[uint64]uint64{}
	parts := []*TopK{NewTopK(64), NewTopK(64)}
	const n = 100000
	for i := 0; i < n; i++ {
		var key uint64
		if r.Bool(0.7) {
			key = uint64(r.Intn(4)) // heavy, ~17.5% each
		} else {
			key = 1000 + r.Uint64()%50000 // noise
		}
		parts[i%2].Add(key)
		trueCounts[key]++
	}
	m := parts[0]
	m.Merge(parts[1])
	if m.Total() != n {
		t.Fatalf("total = %d, want %d", m.Total(), n)
	}
	if got := len(m.Top(1000)); got > 64 {
		t.Fatalf("merge exceeded capacity: %d items", got)
	}
	seen := map[uint64]bool{}
	for _, it := range m.Top(64) {
		seen[it.Key] = true
		if it.Count < trueCounts[it.Key] {
			t.Fatalf("key %d: estimate %d below true %d", it.Key, it.Count, trueCounts[it.Key])
		}
		if it.Count-it.Err > trueCounts[it.Key] {
			t.Fatalf("key %d: lower bound %d above true %d", it.Key, it.Count-it.Err, trueCounts[it.Key])
		}
	}
	for k := uint64(0); k < 4; k++ {
		if !seen[k] {
			t.Fatalf("heavy hitter %d lost in merge", k)
		}
	}
}

func TestTopKMergeEmptyAndNil(t *testing.T) {
	tk := NewTopK(4)
	tk.Add(1)
	tk.Merge(nil)
	tk.Merge(NewTopK(4))
	if tk.Total() != 1 || len(tk.Top(4)) != 1 {
		t.Fatalf("merge with empty changed state: total=%d", tk.Total())
	}
}

func BenchmarkHLLAdd(b *testing.B) {
	h := NewHyperLogLog()
	for i := 0; i < b.N; i++ {
		h.Add(uint64(i))
	}
}

func BenchmarkTopKAdd(b *testing.B) {
	tk := NewTopK(1024)
	r := rng.New(1)
	keys := make([]uint64, 65536)
	for i := range keys {
		keys[i] = r.Uint64() % 5000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Add(keys[i&65535])
	}
}

// linearTopK is the reference Space-Saving tracker: the eviction victim is
// found by a scan over every counter for the smallest (count, key). TopK must
// pick the same victim through its heap, so the two agree item for item on
// any stream.
type linearTopK struct {
	k     int
	index map[uint64]int
	items []Item
}

func (t *linearTopK) add(key uint64) {
	if i, ok := t.index[key]; ok {
		t.items[i].Count++
		return
	}
	if len(t.items) < t.k {
		t.index[key] = len(t.items)
		t.items = append(t.items, Item{Key: key, Count: 1})
		return
	}
	min := 0
	for i, e := range t.items {
		if m := t.items[min]; e.Count < m.Count || (e.Count == m.Count && e.Key < m.Key) {
			min = i
		}
	}
	old := t.items[min]
	delete(t.index, old.Key)
	t.index[key] = min
	t.items[min] = Item{Key: key, Count: old.Count + 1, Err: old.Count}
}

func (t *linearTopK) top() []Item {
	items := append([]Item(nil), t.items...)
	sort.Slice(items, func(i, j int) bool {
		if items[i].Count != items[j].Count {
			return items[i].Count > items[j].Count
		}
		return items[i].Key < items[j].Key
	})
	return items
}

// sweepStream is the decade store's worst case for a port tracker: sweeps of
// 10 000 consecutive ports, each starting somewhere else, over a tracker that
// holds 4096.
func sweepStream(sweeps, ports int) []uint64 {
	r := rng.New(7)
	keys := make([]uint64, 0, sweeps*ports)
	for s := 0; s < sweeps; s++ {
		base := r.Intn(65536 - ports)
		for p := 0; p < ports; p++ {
			keys = append(keys, uint64(base+p))
		}
	}
	return keys
}

func TestTopKMatchesLinearScanEviction(t *testing.T) {
	keys := sweepStream(23, 10000)
	tk := NewTopK(4096)
	ref := &linearTopK{k: 4096, index: map[uint64]int{}}
	for _, k := range keys {
		tk.Add(k)
		ref.add(k)
	}
	got, want := tk.Top(4096), ref.top()
	if len(got) != len(want) {
		t.Fatalf("%d items tracked, reference tracks %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("item %d: %+v, reference %+v", i, got[i], want[i])
		}
	}
	if tk.Total() != uint64(len(keys)) {
		t.Fatalf("total = %d, want %d", tk.Total(), len(keys))
	}
}

// BenchmarkTopKSweep is one 10 000-port sweep into a saturated capacity-4096
// tracker: every key is new, so every Add evicts.
func BenchmarkTopKSweep(b *testing.B) {
	keys := sweepStream(23, 10000)
	tk := NewTopK(4096)
	for _, k := range keys {
		tk.Add(k)
	}
	sweep := keys[:10000]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range sweep {
			tk.Add(k + uint64(i&1)*70000)
		}
	}
}
