package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/query"
)

// hardenedServer builds a server over the standard test store with the
// given config and an installable exec hook, returning the test server and
// registry. The hook (when used) runs in flight leaders after admission and
// before the engine walk — the seam every overload test here pivots on.
func hardenedServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	dir, _ := testStore(t, false)
	reg := obs.NewRegistry()
	srv := openServer(t, cfg, reg, dir)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { checkBooks(t, reg) })
	t.Cleanup(ts.Close)
	return srv, ts, reg
}

// post sends body to ts's /v1/query; safe off the test goroutine.
func post(ts *httptest.Server, body string) (*http.Response, error) {
	return http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
}

// waitCounter polls a counter until it reaches want or the deadline passes.
func waitCounter(t *testing.T, reg *obs.Registry, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Snapshot().Counter(name) >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("counter %s never reached %d (at %d)",
		name, want, reg.Snapshot().Counter(name))
}

// TestSingleflightCollapse: N identical in-flight POST /v1/query requests
// run ONE engine scan. The first arrival leads; the rest attach to its
// flight and share the result. Asserted through the admission counter (one
// admitted scan), the singleflight counters, and the X-Cache header split.
func TestSingleflightCollapse(t *testing.T) {
	const n = 8
	srv, ts, reg := hardenedServer(t, Config{CacheBytes: 64 << 20, Timeout: 30 * time.Second})

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.execHook = func() {
		once.Do(func() { close(entered) })
		<-release
	}

	body := `{"group_by":["tool"],"aggs":[{"op":"count"}]}`
	type reply struct {
		status int
		cache  string
		body   string
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
			if err != nil {
				replies <- reply{status: -1, body: err.Error()}
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			replies <- reply{resp.StatusCode, resp.Header.Get("X-Cache"), string(b)}
		}()
	}

	<-entered // the leader is holding the flight open
	// Wait until all n-1 followers have attached before letting it run.
	waitCounter(t, reg, "server.singleflight.shared", n-1)
	close(release)

	var miss, shared int
	var bodies []string
	for i := 0; i < n; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("request got status %d: %s", r.status, r.body)
		}
		switch r.cache {
		case "miss":
			miss++
		case "shared":
			shared++
		default:
			t.Fatalf("unexpected X-Cache %q", r.cache)
		}
		bodies = append(bodies, r.body)
	}
	if miss != 1 || shared != n-1 {
		t.Fatalf("X-Cache split miss=%d shared=%d, want 1/%d", miss, shared, n-1)
	}
	for _, b := range bodies[1:] {
		if b != bodies[0] {
			t.Fatalf("shared flight produced divergent bodies:\n%s\n%s", bodies[0], b)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter("server.admission.admitted"); got != 1 {
		t.Fatalf("admitted = %d, want exactly 1 engine run for %d requests", got, n)
	}
	if got := snap.Counter("server.singleflight.leaders"); got != 1 {
		t.Fatalf("singleflight leaders = %d, want 1", got)
	}
	if got := snap.Counter("server.singleflight.shared"); got != n-1 {
		t.Fatalf("singleflight shared = %d, want %d", got, n-1)
	}

	// The flight's body was cached: the same query now hits without joining
	// any flight.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if c := resp.Header.Get("X-Cache"); c != "hit" {
		t.Fatalf("post-flight X-Cache = %q, want hit", c)
	}
}

// TestAdmissionControl429: with one scan slot, a second distinct query is
// bounced immediately with 429 + Retry-After while the first is running —
// and succeeds once the slot frees.
func TestAdmissionControl429(t *testing.T) {
	srv, ts, reg := hardenedServer(t, Config{
		CacheBytes: 64 << 20, Timeout: 30 * time.Second,
		MaxInflight: 1, RetryAfter: 2 * time.Second,
	})

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.execHook = func() {
		once.Do(func() { close(entered) })
		<-release
	}

	slow := make(chan error, 1)
	go func() {
		resp, err := post(ts, `{"where": {"field": "year", "eq": 2020}, "limit": 5}`)
		if err != nil {
			slow <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			slow <- fmt.Errorf("slow query status %d", resp.StatusCode)
			return
		}
		slow <- nil
	}()
	<-entered // the only slot is now held

	resp, err := post(ts, `{"where": {"field": "year", "eq": 2023}, "limit": 5}`)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429; body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want %q", ra, "2")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("429 body %q is not a JSON error: %v", body, err)
	}
	if got := reg.Snapshot().Counter("server.admission.rejected"); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}

	close(release)
	if err := <-slow; err != nil {
		t.Fatalf("slot-holding query failed: %v", err)
	}

	// Slot free again: the previously bounced query now runs.
	resp2, err := post(ts, `{"where": {"field": "year", "eq": 2023}, "limit": 5}`)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200", resp2.StatusCode)
	}
}

// TestStreamedScanList: a select-mode response is written record by record,
// chunked once it outgrows net/http's buffer, and decodes to exactly the
// scans query.Run returns over the same store. The cache tee captured the
// body, so the repeat is a cache hit, not a second stream.
func TestStreamedScanList(t *testing.T) {
	srv, ts, reg := hardenedServer(t, Config{CacheBytes: 64 << 20})
	const body = `{"limit": 100}`

	resp, err := post(ts, body)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if len(resp.TransferEncoding) == 0 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("TransferEncoding = %v, want chunked", resp.TransferEncoding)
	}
	if got := reg.Snapshot().Counter("server.stream.responses"); got != 1 {
		t.Fatalf("server.stream.responses = %d, want 1", got)
	}
	var got struct {
		Matched   uint64           `json:"matched"`
		Returned  int              `json:"returned"`
		Truncated bool             `json:"truncated"`
		Degraded  bool             `json:"degraded"`
		Scans     []query.WireScan `json:"scans"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, raw)
	}

	q, err := query.Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	pin := srv.stores[0].pin()
	defer pin.v.Release()
	res, err := query.Run(context.Background(), q, pin.v)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]query.WireScan, len(res.Scans))
	for i, rec := range res.Scans {
		want[i] = rec.Wire()
	}
	if got.Matched != res.Matched || got.Returned != 100 || got.Truncated != res.Truncated || got.Degraded {
		t.Fatalf("header matched=%d returned=%d truncated=%v degraded=%v, engine matched=%d truncated=%v",
			got.Matched, got.Returned, got.Truncated, got.Degraded, res.Matched, res.Truncated)
	}
	if len(want) != 100 || !reflect.DeepEqual(got.Scans, want) {
		t.Fatalf("streamed %d scans differ from the engine's %d", len(got.Scans), len(want))
	}

	resp2, err := post(ts, body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if c := resp2.Header.Get("X-Cache"); c != "hit" {
		t.Fatalf("repeat X-Cache = %q, want hit", c)
	}
	if got := reg.Snapshot().Counter("server.stream.responses"); got != 1 {
		t.Fatalf("server.stream.responses = %d after a cache hit, want 1", got)
	}
}

// TestDrainRefusesNewRequests: after startDrain every new request is bounced
// with 503 + Connection: close + Retry-After, while a request already in
// flight runs to completion — the SIGTERM drain contract.
func TestDrainRefusesNewRequests(t *testing.T) {
	srv, ts, reg := hardenedServer(t, Config{CacheBytes: 64 << 20, Timeout: 30 * time.Second})

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.execHook = func() {
		once.Do(func() { close(entered) })
		<-release
	}

	inflight := make(chan error, 1)
	go func() {
		resp, err := post(ts, `{"limit": 3}`)
		if err != nil {
			inflight <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			inflight <- fmt.Errorf("in-flight request status %d", resp.StatusCode)
			return
		}
		inflight <- nil
	}()
	<-entered

	srv.startDrain()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain status = %d, want 503; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 missing Retry-After")
	}
	if !resp.Close {
		t.Fatal("draining 503 missing Connection: close")
	}
	if got := reg.Snapshot().Counter("server.drain.refused"); got != 1 {
		t.Fatalf("drain.refused = %d, want 1", got)
	}

	close(release)
	if err := <-inflight; err != nil {
		t.Fatalf("request admitted before drain must complete: %v", err)
	}
}

// TestTimeoutGoroutineCleanup is the regression test for scan goroutines
// outliving their 504: after a batch of deadline-expired queries, the
// process goroutine count settles back to its baseline — nothing keeps
// decoding blocks for a response that was already written.
func TestTimeoutGoroutineCleanup(t *testing.T) {
	_, ts, _ := hardenedServer(t, Config{CacheBytes: 64 << 20, Timeout: time.Nanosecond})

	baseline := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		resp, err := post(ts, fmt.Sprintf(`{"limit": %d}`, 10+i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504", resp.StatusCode)
		}
	}

	// Goroutine counts are noisy (keep-alive conns, test runner); allow the
	// count time to settle and a small slack over baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+5 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after 504s: baseline %d, now %d\n%s",
				baseline, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestCacheByteBound: the result cache respects its byte budget — bodies
// too large for the per-entry cap are never stored, total bytes stay under
// the bound, and the gauge reports it.
func TestCacheByteBound(t *testing.T) {
	const maxBytes = 4096 // per-entry cap: 512 bytes
	_, ts, reg := hardenedServer(t, Config{CacheBytes: maxBytes})

	// A big scan list blows the per-entry cap: both fetches miss.
	for i := 0; i < 2; i++ {
		resp, err := post(ts, `{"limit": 50}`)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if c := resp.Header.Get("X-Cache"); c != "miss" {
			t.Fatalf("oversized body fetch %d: X-Cache = %q, want miss (never cached)", i, c)
		}
	}

	// Small bodies cache normally, and many distinct ones stay within the
	// byte budget by evicting.
	for i := 0; i < 40; i++ {
		resp, err := post(ts, fmt.Sprintf(`{"where": {"field": "rate_pps", "min": %d}, "limit": 1}`, 100+i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	small := `{"group_by": ["tool"], "aggs": [{"op": "count"}]}`
	resp, err := post(ts, small)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = post(ts, small)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if c := resp.Header.Get("X-Cache"); c != "hit" {
		t.Fatalf("small body repeat: X-Cache = %q, want hit", c)
	}

	snap := reg.Snapshot()
	bytesGauge, ok := snap.Gauges["server.cache.bytes"]
	if !ok {
		t.Fatal("server.cache.bytes gauge not exposed")
	}
	if bytesGauge <= 0 || bytesGauge > maxBytes {
		t.Fatalf("cache bytes gauge %d outside (0, %d]", bytesGauge, maxBytes)
	}

	var stats struct {
		CacheBytes int64 `json:"cache_bytes"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.CacheBytes <= 0 || stats.CacheBytes > maxBytes {
		t.Fatalf("/v1/stats cache_bytes %d outside (0, %d]", stats.CacheBytes, maxBytes)
	}
}

// TestLRUByteAccounting unit-tests the byte bound directly: the per-entry
// cap, eviction by bytes, and replacement accounting.
func TestLRUByteAccounting(t *testing.T) {
	c := newLRU(1000) // per-entry cap 125
	if c.entryCap() != 125 {
		t.Fatalf("entryCap = %d, want 125", c.entryCap())
	}
	c.put("big", bytes.Repeat([]byte("x"), 126))
	if _, ok := c.get("big"); ok {
		t.Fatal("body above the per-entry cap was stored")
	}
	for i := 0; i < 20; i++ {
		c.put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte("x"), 100))
	}
	if got := c.bytesUsed(); got > 1000 {
		t.Fatalf("bytesUsed = %d, exceeds 1000 budget", got)
	}
	if c.len() != 10 {
		t.Fatalf("len = %d, want 10 (1000/100)", c.len())
	}
	if _, ok := c.get("k19"); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := c.get("k0"); ok {
		t.Fatal("oldest entry survived byte-bound eviction")
	}
	// Replacement: same key, new body size adjusts the tally, not doubles it.
	c.put("k19", bytes.Repeat([]byte("y"), 50))
	want := c.bytesUsed()
	c.put("k19", bytes.Repeat([]byte("z"), 50))
	if got := c.bytesUsed(); got != want {
		t.Fatalf("replacement changed bytesUsed %d -> %d", want, got)
	}
}

// TestConcurrentCacheRescanCompaction races queries against segment
// discovery and compaction generation bumps — the -race companion to
// TestSegmentStoreServing. Every response must be internally consistent
// (one of the segment-set counts that existed at some point, never a torn
// or stale-beyond-generation body), and the final state must converge.
func TestConcurrentCacheRescanCompaction(t *testing.T) {
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
	srv := newServer([]*store{{dir: dir, cat: cat}}, Config{CacheBytes: 64 << 20}, reg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Writer: seal 4 more 50-scan segments, refreshing after each, then
	// compact runs and refresh again — generation bumps racing the readers.
	writerDone := make(chan error, 1)
	go func() {
		for batch := 0; batch < 4; batch++ {
			for _, sc := range storeScans(100+batch*50, 50) {
				if err := sw.Add(sc); err != nil {
					writerDone <- err
					return
				}
			}
			if err := sw.Seal(); err != nil {
				writerDone <- err
				return
			}
			if _, err := cat.Refresh(); err != nil {
				writerDone <- err
				return
			}
		}
		comp := archive.NewCompactor(sw, archive.CompactorConfig{MinRun: 2, MaxInputBytes: 1 << 30})
		if _, err := comp.CompactOnce(); err != nil {
			writerDone <- err
			return
		}
		if _, err := cat.Refresh(); err != nil {
			writerDone <- err
			return
		}
		writerDone <- nil
	}()

	// Readers: hammer the same cached query (and a couple of variants)
	// while the segment set churns underneath.
	valid := map[uint64]bool{100: true, 150: true, 200: true, 250: true, 300: true}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"limit": %d}`, 1+g%3)
			for i := 0; i < 40; i++ {
				resp, err := post(ts, body)
				if err != nil {
					errc <- err
					return
				}
				var res struct {
					Matched uint64 `json:"matched"`
				}
				err = json.NewDecoder(resp.Body).Decode(&res)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if !valid[res.Matched] {
					errc <- fmt.Errorf("matched=%d is no segment-set total", res.Matched)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}

	// Converged: the final generation serves all 300 scans, and caches it.
	var res struct {
		Matched uint64 `json:"matched"`
	}
	if c := postCache(t, ts.URL, `{"limit": 1}`, &res); res.Matched != 300 {
		t.Fatalf("final matched=%d (cache=%s), want 300", res.Matched, c)
	}
	if c := postCache(t, ts.URL, `{"limit": 1}`, &res); c != "hit" || res.Matched != 300 {
		t.Fatalf("final repeat cache=%s matched=%d, want hit/300", c, res.Matched)
	}
}
