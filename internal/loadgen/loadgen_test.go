package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/obs"
)

func TestRunBasics(t *testing.T) {
	var hits atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	res, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Clients:  8,
		Requests: 200,
		Mix:      StandardMix(),
		Seed:     42,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 200 {
		t.Fatalf("Requests = %d, want 200", res.Requests)
	}
	if hits.Load() != 200 {
		t.Fatalf("server saw %d hits, want 200", hits.Load())
	}
	if res.Status[200] != 200 {
		t.Fatalf("Status[200] = %d, want 200", res.Status[200])
	}
	if res.Errors != 0 || res.Rejected != 0 {
		t.Fatalf("unexpected errors=%d rejected=%d", res.Errors, res.Rejected)
	}
	if res.P50Ms <= 0 || res.P99Ms < res.P50Ms || res.MaxMs < res.P99Ms {
		t.Fatalf("quantiles out of order: p50=%v p99=%v max=%v", res.P50Ms, res.P99Ms, res.MaxMs)
	}
	if res.Throughput <= 0 {
		t.Fatalf("Throughput = %v, want > 0", res.Throughput)
	}
	var total uint64
	for _, n := range res.ByName {
		total += n
	}
	if total != 200 {
		t.Fatalf("ByName sums to %d, want 200", total)
	}
	// The hot entry (weight 4) should dominate the quantile entry (weight 1).
	if res.ByName["select-hot"] <= res.ByName["query-quantile"] {
		t.Fatalf("weights not respected: hot=%d quantile=%d",
			res.ByName["select-hot"], res.ByName["query-quantile"])
	}
	if got := reg.Snapshot().Counter("loadgen.requests"); got != 200 {
		t.Fatalf("loadgen.requests = %d, want 200", got)
	}
}

func TestRunCountsRejectionsAndRetryAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/query") {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	res, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Clients:  4,
		Requests: 120,
		Mix:      StandardMix(),
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("expected some 429s to be counted as Rejected")
	}
	if !res.RetryAfterSeen {
		t.Fatal("Retry-After header was sent but not observed")
	}
	if res.Errors != 0 {
		t.Fatalf("429s must not count as errors, got Errors=%d", res.Errors)
	}
	if err := res.Check(SLO{MaxRejectShare: 0.0001}); err == nil {
		t.Fatal("SLO with tiny MaxRejectShare should fail")
	}
}

func TestRunCountsServerErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	res, err := Run(context.Background(), Config{
		BaseURL: ts.URL, Clients: 2, Requests: 20,
		Mix: HotMix(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 20 {
		t.Fatalf("Errors = %d, want 20 (all 500s)", res.Errors)
	}
	if err := res.Check(SLO{MaxErrorRate: 0.01}); err == nil {
		t.Fatal("SLO with MaxErrorRate should fail when everything 500s")
	}
}

func TestRunDurationMode(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	start := time.Now()
	res, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Clients:  4,
		Duration: 150 * time.Millisecond,
		Mix:      HotMix(),
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("duration mode ran %v, want ~150ms", el)
	}
	if res.Requests == 0 {
		t.Fatal("duration mode completed zero requests")
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Clients: 1, Requests: 1, Mix: HotMix()}); err == nil {
		t.Fatal("missing BaseURL should error")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://x", Requests: 1}); err == nil {
		t.Fatal("empty mix should error")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://x", Mix: HotMix()}); err == nil {
		t.Fatal("neither Requests nor Duration should error")
	}
}

func TestSLOCheck(t *testing.T) {
	res := Result{
		Requests: 1000, P99Ms: 45, Throughput: 800,
		Errors: 5, Rejected: 100,
	}
	if err := res.Check(SLO{}); err != nil {
		t.Fatalf("empty SLO must pass: %v", err)
	}
	if err := res.Check(SLO{MaxP99: 50 * time.Millisecond, MaxErrorRate: 0.01, MaxRejectShare: 0.2, MinThroughput: 500}); err != nil {
		t.Fatalf("satisfied SLO must pass: %v", err)
	}
	err := res.Check(SLO{MaxP99: 10 * time.Millisecond, MinThroughput: 900})
	if err == nil {
		t.Fatal("violated SLO must fail")
	}
	// Both violations should be reported, not just the first.
	if msg := err.Error(); !strings.Contains(msg, "p99") || !strings.Contains(msg, "throughput") {
		t.Fatalf("want both violations in error, got: %v", msg)
	}
}

// TestQuantileNearestRank: a latency quantile is the nearest-rank one, so
// the p99 of ten latencies is the largest, not the second largest.
func TestQuantileNearestRank(t *testing.T) {
	lat := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i+1) * time.Millisecond
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{10, 0.99, 10}, {10, 0.50, 5}, {10, 0.90, 9}, {1, 0.50, 1},
		{70, 0.90, 63}, // 0.9·70 is 63.00000000000001 in floating point
		{100, 0.99, 99}, {100, 0.50, 50},
	} {
		if got := quantile(lat(tc.n), tc.q); got != tc.want {
			t.Errorf("quantile(1…%d ms, %g) = %g ms, want %g", tc.n, tc.q, got, tc.want)
		}
	}
}

func TestFixtureStore(t *testing.T) {
	dir := t.TempDir()
	const n = 500
	if err := WriteFixtureStore(dir, n, 9); err != nil {
		t.Fatal(err)
	}
	cat, err := archive.OpenCatalog(dir, archive.CatalogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	v := cat.View()
	defer v.Release()
	if v.NumScans() != n {
		t.Fatalf("NumScans = %d, want %d", v.NumScans(), n)
	}
	var got uint64
	years := map[int]bool{}
	err = v.Query(context.Background(), archive.All, func(sc *core.Scan, _ *enrich.Origin) {
		got++
		years[time.Unix(0, sc.Start).UTC().Year()] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("scanned %d, want %d", got, n)
	}
	if len(years) < 5 {
		t.Fatalf("fixture spans %d years, want the decade", len(years))
	}
	// Determinism: the same seed writes byte-identical segments.
	dir2 := t.TempDir()
	if err := WriteFixtureStore(dir2, n, 9); err != nil {
		t.Fatal(err)
	}
	if v.Len() != 1 {
		t.Fatalf("fixture store has %d segments, want 1", v.Len())
	}
	b1 := mustRead(t, filepath.Join(dir, v.Name(0)))
	b2 := mustRead(t, filepath.Join(dir2, v.Name(0)))
	if string(b1) != string(b2) {
		t.Fatal("fixture stores with the same seed differ")
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
