package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
}

func TestCounterNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	var h *Histogram
	h.Observe(7)
	sp := StartSpan(h)
	sp.End()
	Span{}.End()
}

// TestCounterConcurrent verifies no increments are lost across stripes.
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const goroutines, per = 16, 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("Value = %d, want %d", got, goroutines*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
}

// TestHistogramBucketRoundTrip: every index's lower bound maps back to the
// same index, and observations land in buckets whose bounds contain them.
func TestHistogramBucketRoundTrip(t *testing.T) {
	for idx := 0; idx < histBuckets; idx++ {
		lo := histLowerBound(idx)
		if got := histIndex(uint64(lo)); got != idx {
			t.Fatalf("histIndex(lowerBound(%d)=%d) = %d", idx, lo, got)
		}
	}
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, 1<<40 + 12345} {
		idx := histIndex(uint64(v))
		lo := histLowerBound(idx)
		if lo > v {
			t.Fatalf("value %d below its bucket's lower bound %d", v, lo)
		}
		if idx+1 < histBuckets {
			if hi := histLowerBound(idx + 1); v >= hi {
				t.Fatalf("value %d at/above next bucket's lower bound %d", v, hi)
			}
		}
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	h.Observe(-5) // clamps to 0
	s := h.snapshot()
	if s.Count != 101 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Max != 100 {
		t.Fatalf("Max = %d", s.Max)
	}
	if s.Sum != 5050 {
		t.Fatalf("Sum = %d", s.Sum)
	}
	if m := s.Mean(); m < 49 || m > 51 {
		t.Fatalf("Mean = %v", m)
	}
	// Median of 0,1..100 is 50; log-linear resolution is ~6%.
	if q := s.Quantile(0.5); q < 44 || q > 56 {
		t.Fatalf("p50 = %d, want ~50", q)
	}
	if q := s.Quantile(0); q != 0 {
		t.Fatalf("p0 = %d", q)
	}
	if q := s.Quantile(1); q < 90 {
		t.Fatalf("p100 = %d, want >= 90", q)
	}
}

func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return same counter")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same name must return same gauge")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name must return same histogram")
	}
}

func TestCountersWithPrefix(t *testing.T) {
	r := NewRegistry()
	r.Counter("faults.archive.corrupt_blocks").Add(3)
	r.Counter("telescope.drop.bad_time").Add(2)
	r.Counter("telescope.drop.policy").Add(9)
	s := r.Snapshot()
	got := s.CountersWithPrefix("telescope.drop.")
	want := map[string]uint64{
		"telescope.drop.bad_time": 2,
		"telescope.drop.policy":   9,
	}
	if len(got) != len(want) {
		t.Fatalf("CountersWithPrefix(telescope.drop.) = %v", got)
	}
	for name, v := range want {
		if got[name] != v {
			t.Fatalf("%s = %d, want %d", name, got[name], v)
		}
	}
	if all := s.CountersWithPrefix(""); len(all) != 3 {
		t.Fatalf("empty prefix returned %d counters, want all 3", len(all))
	}
	if none := s.CountersWithPrefix("nope."); len(none) != 0 {
		t.Fatalf("unmatched prefix returned %v", none)
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	r.GaugeFunc("x", func() int64 { return 1 })
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestSnapshotDuringConcurrentUpdates scrapes while many goroutines write:
// run with -race to validate the lock discipline.
func TestSnapshotDuringConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("fn", func() int64 { return 42 })
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(int64(i))
			}
		}(i)
	}
	deadline := time.After(50 * time.Millisecond)
	for {
		s := r.Snapshot()
		if s.Gauge("fn") != 42 {
			t.Fatal("gauge func not evaluated")
		}
		select {
		case <-deadline:
			close(done)
			wg.Wait()
			final := r.Snapshot()
			if final.Counter("c") == 0 {
				t.Fatal("counter never advanced")
			}
			return
		default:
		}
	}
}

func TestExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("pipeline.in").Add(7)
	r.Gauge("queue.depth").Set(3)
	r.Histogram("stage_ns").Observe(1000)

	var txt bytes.Buffer
	if err := r.Snapshot().WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pipeline.in 7", "queue.depth 3", "stage_ns count=1"} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("text exposition missing %q:\n%s", want, txt.String())
		}
	}

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if back.Counter("pipeline.in") != 7 || back.Gauge("queue.depth") != 3 {
		t.Fatalf("round-tripped snapshot wrong: %+v", back)
	}
	if h := back.Histograms["stage_ns"]; h.Count != 1 || h.Sum != 1000 {
		t.Fatalf("round-tripped histogram wrong: %+v", h)
	}
}

func TestStartDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("ticks").Inc()
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := StartDump(r, w, time.Millisecond)
	defer stop()
	deadline := time.Now().Add(time.Second)
	for {
		mu.Lock()
		s := buf.String()
		mu.Unlock()
		if strings.Contains(s, "ticks 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no dump within deadline:\n%s", s)
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	if s := StartDump(nil, w, time.Millisecond); s == nil {
		t.Fatal("nil registry StartDump must return a stop func")
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
