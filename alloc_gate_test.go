package synscan

import "testing"

// TestBenchAllocGate is the bench-smoke allocation gate: it runs the gated
// hot-path benchmarks through testing.Benchmark and fails the build if their
// steady-state allocations regress. The per-package internal/alloctest
// budgets enforce the same contracts at finer grain with explicit warmup;
// this gate proves them at benchmark iteration counts where one-time warmup
// (flow creation, pool fills) amortizes to zero.
//
// Budgets: frame decode and the detector's per-probe absorb (Detector.Ingest,
// what every command and every shard worker runs) are allocation-free;
// the pooled archive block read allows 2 allocs/op of sync.Pool-miss
// headroom (see internal/archive's TestAllocBudgetBlockRead).
func TestBenchAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs full benchmark runs")
	}
	gates := []struct {
		name  string
		bench func(*testing.B)
		max   int64
	}{
		{"frame-decode", BenchmarkDecodeFrame, 0},
		{"detector-ingest", BenchmarkDetectorIngest, 0},
		{"archive-raw-block", BenchmarkArchiveRawBlock, 2},
	}
	for _, g := range gates {
		res := testing.Benchmark(g.bench)
		if res.N == 0 {
			t.Errorf("%s: the benchmark failed before measuring anything", g.name)
		} else if got := res.AllocsPerOp(); got > g.max {
			t.Errorf("%s: %d allocs/op over budget %d (%s)", g.name, got, g.max, res.MemString())
		} else {
			t.Logf("%s: %d allocs/op (budget %d, N=%d)", g.name, got, g.max, res.N)
		}
	}
}
