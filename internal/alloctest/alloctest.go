// Package alloctest turns allocation discipline into declarative,
// test-enforced budgets. The hot paths of the pipeline — frame decode,
// detector absorb, telescope membership, pooled archive block reads — are
// each pinned by a named budget ("decode" = 0 allocs/op, "archive-block-read"
// ≤ 2, ...); Check measures the path under the same discipline
// testing.AllocsPerRun uses and fails the ordinary `go test ./...` run the
// moment a change makes a gated path allocate past its budget.
//
// Measure is usable outside tests, and every Check appends a JSON line to the
// file named by the ALLOCTEST_REPORT environment variable so CI can collect
// the budget report as an artifact.
package alloctest

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"
)

// Result is one measured budget path, as written to the ALLOCTEST_REPORT
// file (one JSON object per line).
type Result struct {
	// Path names the gated hot path, e.g. "decode" or "detector-absorb".
	Path string `json:"path"`
	// AllocsPerOp and BytesPerOp are the measured per-operation averages.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Budget is the maximum allowed AllocsPerOp.
	Budget float64 `json:"budget"`
	// Pass reports AllocsPerOp <= Budget.
	Pass bool `json:"pass"`
}

// Measure runs fn rounds times and returns the average heap allocations and
// bytes per call. Like testing.AllocsPerRun it warms fn once first and pins
// the measurement to one OS thread's view by forcing GOMAXPROCS(1), so other
// goroutines' allocations do not leak into the count; unlike it, Measure
// also reports bytes (runtime.MemStats.TotalAlloc delta) from the same run
// and needs no *testing.T.
func Measure(rounds int, fn func()) (allocsPerOp, bytesPerOp float64) {
	if rounds < 1 {
		rounds = 1
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm caches, pools and lazily-grown buffers

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(rounds)
	bytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds)
	return allocsPerOp, bytesPerOp
}

// Check measures fn and fails t if it allocates more than maxAllocs per call
// on average. The average is truncated to a whole allocation first — the
// same convention testing.AllocsPerRun callers use — so a single stray
// runtime allocation (a GC worker scheduling onto the measured P) amortized
// across the rounds does not fail a zero budget; a path that really
// allocates shows ≥ 1 per op. Every check also appends its Result to the
// ALLOCTEST_REPORT file when that variable is set, pass or fail, so the CI
// artifact shows the whole budget table.
func Check(t *testing.T, path string, maxAllocs float64, fn func()) {
	t.Helper()
	allocs, bytes := Measure(100, fn)
	res := Result{
		Path:        path,
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
		Budget:      maxAllocs,
		Pass:        math.Floor(allocs) <= maxAllocs,
	}
	report(res)
	if !res.Pass {
		t.Errorf("alloctest: %s allocates %.2f/op (%.1f B/op), budget %.0f",
			path, allocs, bytes, maxAllocs)
	} else {
		t.Logf("alloctest: %s %.2f allocs/op, %.1f B/op (budget %.0f)", path, allocs, bytes, maxAllocs)
	}
}

var reportMu sync.Mutex

// report appends res as one JSON line to $ALLOCTEST_REPORT, if set. Failures
// to write are swallowed: the report is diagnostics, the t.Errorf in Check is
// the enforcement.
func report(res Result) {
	path := os.Getenv("ALLOCTEST_REPORT")
	if path == "" {
		return
	}
	line, err := json.Marshal(res)
	if err != nil {
		return
	}
	reportMu.Lock()
	defer reportMu.Unlock()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	f.Write(append(line, '\n'))
}
