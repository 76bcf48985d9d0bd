package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/faultinject"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/tools"
)

// storeScans builds n simple scans starting at ordinal base, so successive
// batches are distinguishable by count.
func storeScans(base, n int) []*core.Scan {
	out := make([]*core.Scan, 0, n)
	for i := 0; i < n; i++ {
		start := time.Date(2022, time.May, 1, 0, 0, 0, 0, time.UTC).UnixNano() +
			int64(base+i)*int64(time.Minute)
		out = append(out, &core.Scan{
			Src:          0x0A000000 + uint32(base+i),
			Start:        start,
			End:          start + int64(10*time.Minute),
			Packets:      uint64(100 + i),
			DistinctDsts: 60,
			Ports:        []uint16{443},
			Tool:         tools.ToolZMap,
			Qualified:    true,
			RatePPS:      200,
			Coverage:     0.5,
		})
	}
	return out
}

// postCache POSTs a query and returns the X-Cache header and parsed body.
func postCache(t *testing.T, base, body string, into any) string {
	t.Helper()
	return postJSON(t, base, body, into).Header.Get("X-Cache")
}

// TestSegmentStoreServing: synserve over a live segment store picks up newly
// sealed segments on Refresh, and the result cache follows — a cached body is
// served only while the store generation it was computed against is current.
// Regression test for serving stale cached bodies after the segment set
// changed.
func TestSegmentStoreServing(t *testing.T) {
	dir := t.TempDir()
	sw, err := archive.OpenSegmentDir(dir, archive.SegmentConfig{TelescopeSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	for _, sc := range storeScans(0, 100) {
		if err := sw.Add(sc); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Seal(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	cat, err := archive.OpenCatalog(dir, archive.CatalogConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	srv := newServer([]source{&store{dir: dir, cat: cat}}, Config{CacheBytes: 64 << 20}, reg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var res struct {
		Matched  uint64 `json:"matched"`
		Degraded bool   `json:"degraded"`
	}
	const q = `{"limit": 1}`
	if c := postCache(t, ts.URL, q, &res); c != "miss" || res.Matched != 100 {
		t.Fatalf("first query: cache=%s matched=%d", c, res.Matched)
	}
	if c := postCache(t, ts.URL, q, &res); c != "hit" || res.Matched != 100 {
		t.Fatalf("repeat query: cache=%s matched=%d", c, res.Matched)
	}

	// Seal a second segment and let the catalog discover it: the same query
	// must recompute (new generation, new cache key), not serve the stale
	// 100-scan body.
	for _, sc := range storeScans(100, 50) {
		if err := sw.Add(sc); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	if changed, err := cat.Refresh(); err != nil || !changed {
		t.Fatalf("refresh: changed=%v err=%v", changed, err)
	}
	if c := postCache(t, ts.URL, q, &res); c != "miss" || res.Matched != 150 {
		t.Fatalf("post-discovery query: cache=%s matched=%d, want miss/150", c, res.Matched)
	}
	if c := postCache(t, ts.URL, q, &res); c != "hit" || res.Matched != 150 {
		t.Fatalf("post-discovery repeat: cache=%s matched=%d", c, res.Matched)
	}

	// Compaction changes the segment set (and generation) without changing
	// the data: the cache key moves, the answer does not.
	comp := archive.NewCompactor(sw, archive.CompactorConfig{MinRun: 2, MaxInputBytes: 1 << 30})
	if n, err := comp.CompactOnce(); err != nil || n != 2 {
		t.Fatalf("compaction: n=%d err=%v", n, err)
	}
	if _, err := cat.Refresh(); err != nil {
		t.Fatal(err)
	}
	if c := postCache(t, ts.URL, q, &res); c != "miss" || res.Matched != 150 {
		t.Fatalf("post-compaction query: cache=%s matched=%d, want miss/150", c, res.Matched)
	}

	var stats struct {
		Stores []storeInfo `json:"stores"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if len(stats.Stores) != 1 || stats.Stores[0].Segments != 1 || stats.Stores[0].Scans != 150 {
		t.Fatalf("stats stores: %+v", stats.Stores)
	}
}

// TestDegradedResponsesNotCached: a response computed while an archive is
// degraded (corrupt blocks skipped mid-read) must not enter the result cache
// — repairing the file would otherwise keep serving the incomplete body.
// Regression test for caching degraded:true bodies.
func TestDegradedResponsesNotCached(t *testing.T) {
	path, n := testArchive(t, false)

	// Damage one block's payload so the first read discovers the corruption.
	probe, err := archive.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	zones := probe.Blocks()
	probe.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	z := zones[1]
	faultinject.FlipBytes(data, 5, 3, int(z.Offset)+4, int(z.Offset)+4+int(z.CompressedLen))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rd, err := archive.Open(path, archive.WithSkipCorrupt())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	srv := newServer([]source{&file{path: path, rd: rd}}, Config{CacheBytes: 64 << 20}, obs.NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var res struct {
		Matched  uint64 `json:"matched"`
		Degraded bool   `json:"degraded"`
	}
	const q = `{"limit": 1}`
	// The corruption is only discovered during the first read, so the first
	// body may or may not carry degraded:true depending on decode order — but
	// by the time the cache-put decision runs, CorruptBlocks is non-zero and
	// the body must be dropped.
	if c := postCache(t, ts.URL, q, &res); c != "miss" || res.Matched >= uint64(n) {
		t.Fatalf("first query: cache=%s matched=%d of %d", c, res.Matched, n)
	}
	if srv.cache.len() != 0 {
		t.Fatalf("degraded body entered the cache (%d entries)", srv.cache.len())
	}
	if c := postCache(t, ts.URL, q, &res); c != "miss" || !res.Degraded {
		t.Fatalf("second query: cache=%s degraded=%v, want recompute", c, res.Degraded)
	}
	if srv.cache.len() != 0 {
		t.Fatal("degraded body entered the cache on the second read")
	}
}

// TestEmptyStoreServes: a store with no segments yet (syningest not started)
// serves empty results rather than failing.
func TestEmptyStoreServes(t *testing.T) {
	dir := t.TempDir()
	cat, err := archive.OpenCatalog(dir, archive.CatalogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	srv := newServer([]source{&store{dir: dir, cat: cat}}, Config{CacheBytes: 64 << 20}, obs.NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var res struct {
		Matched  uint64 `json:"matched"`
		Degraded bool   `json:"degraded"`
	}
	if c := postCache(t, ts.URL, `{}`, &res); c != "miss" || res.Matched != 0 || res.Degraded {
		t.Fatalf("empty store: cache=%s matched=%d degraded=%v", c, res.Matched, res.Degraded)
	}
	resp, _ := postQuery(t, ts.URL, `{"group_by": ["type"], "aggs": [{"op": "count"}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("origins over empty store: %d, want 400", resp.StatusCode)
	}
}
