package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/query"
	"github.com/synscan/synscan/internal/tools"
)

// testStore writes a small deterministic store of one segment: scans across
// 2020 and 2023, three tools, a handful of ports, sources in 10.0.0.0/24.
func testStore(t *testing.T, origins bool) (dir string, n int) {
	t.Helper()
	dir = t.TempDir()
	w, err := archive.OpenSegmentDir(dir, archive.SegmentConfig{
		TelescopeSize: 1024, Origins: origins, BlockBytes: 2 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	portSets := [][]uint16{{22}, {80, 443}, {23, 2323}, {443}}
	toolSet := []tools.Tool{tools.ToolZMap, tools.ToolMasscan, tools.ToolCustom}
	types := []inetmodel.ScannerType{
		inetmodel.TypeHosting, inetmodel.TypeResidential, inetmodel.TypeInstitutional,
	}
	n = 600
	for i := 0; i < n; i++ {
		year, j := 2020, i
		if i >= n/2 {
			year, j = 2023, i-n/2
		}
		start := time.Date(year, time.March, 1, 0, 0, 0, 0, time.UTC).UnixNano() +
			int64(j)*int64(time.Hour)
		sc := &core.Scan{
			Src:          0x0A000000 + uint32(i%200), // 10.0.0.0/24 and a bit above
			Start:        start,
			End:          start + int64(30*time.Minute),
			Packets:      uint64(100 + i),
			DistinctDsts: 50 + i%10,
			Ports:        portSets[i%len(portSets)],
			Tool:         toolSet[i%len(toolSet)],
			Qualified:    i%5 != 0,
			RatePPS:      float64(100 + i%900),
			Coverage:     0.4,
		}
		if origins {
			o := enrich.Origin{
				Country: "DE", ASN: uint32(100 + i%7),
				Type: types[i%len(types)], OrgID: -1,
			}
			err = w.AddWithOrigin(sc, o)
		} else {
			err = w.Add(sc)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, n
}

// segmentPath is the file of a store's first sealed segment, the only one
// testStore writes.
func segmentPath(dir string) string { return filepath.Join(dir, archive.SegmentName(1)) }

// segmentBlocks reads the one-segment store's segment file and its blocks'
// zone maps, so that a test can damage chosen blocks.
func segmentBlocks(t *testing.T, dir string) ([]byte, []archive.ZoneMap) {
	t.Helper()
	data, err := os.ReadFile(segmentPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := archive.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return data, rd.Blocks()
}

// openServer opens a server over the given stores; it closes at cleanup.
func openServer(t *testing.T, cfg Config, reg *obs.Registry, dirs ...string) *Server {
	t.Helper()
	srv, err := Open(dirs, cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func testServer(t *testing.T, origins bool) (*httptest.Server, *obs.Registry, int) {
	t.Helper()
	dir, n := testStore(t, origins)
	reg := obs.NewRegistry()
	srv := openServer(t, Config{CacheBytes: 64 << 20}, reg, dir)
	ts := httptest.NewServer(srv.Handler())
	// Cleanups run last-in first-out: the books are read after ts.Close has
	// waited out every request.
	t.Cleanup(func() { checkBooks(t, reg) })
	t.Cleanup(ts.Close)
	return ts, reg, n
}

// checkBooks asserts the server's two accounting laws: every query request
// is refused before execution, served from the cache, or joins a flight as
// its leader or a follower; and every flight leader was admitted or
// rejected.
func checkBooks(t *testing.T, reg *obs.Registry) {
	t.Helper()
	c := reg.Snapshot().Counter
	requests := c("query.requests")
	disposed := c("query.parse_errors") + c("synserve.cache.hits") +
		c("server.singleflight.leaders") + c("server.singleflight.shared")
	if requests != disposed {
		t.Errorf("query.requests = %d, but parse errors + cache hits + flight leaders + followers = %d",
			requests, disposed)
	}
	leaders := c("server.singleflight.leaders")
	if admitted := c("server.admission.admitted") + c("server.admission.rejected"); leaders != admitted {
		t.Errorf("server.singleflight.leaders = %d, but admitted + rejected = %d", leaders, admitted)
	}
}

// postJSON POSTs body to base's /v1/query, requires a 200 and decodes the
// response into into.
func postJSON(t *testing.T, base, body string, into any) *http.Response {
	t.Helper()
	resp, out := postQuery(t, base, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d: %s", body, resp.StatusCode, out)
	}
	if err := json.Unmarshal(out, into); err != nil {
		t.Fatalf("POST %s: bad JSON: %v\n%s", body, err, out)
	}
	return resp
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, body)
	}
	return resp
}

func TestScansEndpoint(t *testing.T) {
	ts, _, n := testServer(t, true)

	var res struct {
		Matched   uint64           `json:"matched"`
		Returned  int              `json:"returned"`
		Truncated bool             `json:"truncated"`
		Scans     []query.WireScan `json:"scans"`
	}
	postJSON(t, ts.URL, `{"limit": 50}`, &res)
	if res.Matched != uint64(n) {
		t.Fatalf("matched %d, want %d", res.Matched, n)
	}
	if res.Returned != 50 || len(res.Scans) != 50 || !res.Truncated {
		t.Fatalf("returned=%d len=%d truncated=%v", res.Returned, len(res.Scans), res.Truncated)
	}
	if res.Scans[0].Origin == nil {
		t.Fatal("origins archive returned scans without origin")
	}

	postJSON(t, ts.URL, `{"where": {"field": "year", "eq": 2020}, "limit": 1000}`, &res)
	if res.Matched != uint64(n/2) {
		t.Fatalf("year=2020 matched %d, want %d", res.Matched, n/2)
	}
	for _, sc := range res.Scans {
		if y := time.Unix(0, sc.StartNS).UTC().Year(); y != 2020 {
			t.Fatalf("year filter leaked a %d scan", y)
		}
	}

	postJSON(t, ts.URL, `{"where": {"and": [
		{"field": "tool", "eq": "zmap"},
		{"field": "port", "eq": 22},
		{"field": "qualified", "eq": true}
	]}, "limit": 1000}`, &res)
	if res.Matched == 0 {
		t.Fatal("tool+port+qualified filter matched nothing")
	}
	for _, sc := range res.Scans {
		if sc.Tool != "ZMap" || !sc.Qualified {
			t.Fatalf("filter leaked %s qualified=%v", sc.Tool, sc.Qualified)
		}
	}

	postJSON(t, ts.URL, `{"where": {"field": "src", "prefix": "10.0.0.0/28"}, "limit": 1000}`, &res)
	if res.Matched == 0 || res.Matched == uint64(n) {
		t.Fatalf("src prefix filter matched %d of %d", res.Matched, n)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _, n := testServer(t, true)

	var stats struct {
		Stores       []storeInfo  `json:"stores"`
		CacheEntries int          `json:"cache_entries"`
		Metrics      obs.Snapshot `json:"metrics"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if len(stats.Stores) != 1 {
		t.Fatalf("%d stores", len(stats.Stores))
	}
	a := stats.Stores[0]
	if a.Scans != uint64(n) || a.Segments != 1 || a.TelescopeSize != 1024 || !a.Origins {
		t.Fatalf("store info %+v", a)
	}
	if a.MinYear != 2020 || a.MaxYear != 2023 {
		t.Fatalf("year span %d-%d, want 2020-2023", a.MinYear, a.MaxYear)
	}
	if stats.Metrics.Counters["synserve.http.requests"] == 0 {
		t.Fatal("stats snapshot missing request counter")
	}
}

// TestBadRequests: a well-formed request with a value its field cannot take
// is a 400 with a JSON error body.
func TestBadRequests(t *testing.T) {
	ts, _, _ := testServer(t, false)
	for _, body := range []string{
		`{"where": {"field": "year", "eq": "twenty"}}`,
		`{"where": {"field": "tool", "eq": "nessus"}}`,
		`{"where": {"field": "port", "eq": 99999}}`,
		`{"where": {"field": "src", "prefix": "300.0.0.0/8"}}`,
		`{"where": {"field": "qualified", "eq": "maybe"}}`,
		`{"limit": -1}`,
		`{"group_by": ["port"], "aggs": [{"op": "count"}], "limit": -1}`,
		`{"group_by": ["type"], "aggs": [{"op": "count"}]}`, // origin-less store
	} {
		resp, out := postQuery(t, ts.URL, body)
		var e struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(out, &e) != nil || e.Error == "" {
			t.Errorf("POST %s: %d %s, want 400 with a JSON error", body, resp.StatusCode, out)
		}
	}
}

// TestCacheHits: the second identical query is served from the LRU — same
// body, X-Cache flips to hit, and the hit counter moves. Key order and the
// order of and-children must not fragment the cache.
func TestCacheHits(t *testing.T) {
	ts, reg, _ := testServer(t, true)

	post := func(body string) (string, []byte) {
		t.Helper()
		resp, out := postQuery(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d", body, resp.StatusCode)
		}
		return resp.Header.Get("X-Cache"), out
	}

	q := `{"where": {"and": [{"field": "year", "eq": 2020}, {"field": "tool", "eq": "zmap"}]}, "limit": 20}`
	c1, b1 := post(q)
	c2, b2 := post(q)
	c3, b3 := post(`{"limit": 20, "where": {"and": [{"field": "tool", "eq": "ZMap"}, {"field": "year", "eq": 2020}]}}`)
	if c1 != "miss" || c2 != "hit" || c3 != "hit" {
		t.Fatalf("X-Cache sequence %q %q %q, want miss hit hit", c1, c2, c3)
	}
	if string(b1) != string(b2) || string(b1) != string(b3) {
		t.Fatal("cached body differs from computed body")
	}

	snap := reg.Snapshot()
	if hits := snap.Counter("synserve.cache.hits"); hits != 2 {
		t.Fatalf("cache hits %d, want 2", hits)
	}
	if misses := snap.Counter("synserve.cache.misses"); misses != 1 {
		t.Fatalf("cache misses %d, want 1", misses)
	}
}

// TestConcurrentQueries hammers both routes from several goroutines; run
// under -race this doubles as the data-race check for the shared reader,
// cache and counters.
func TestConcurrentQueries(t *testing.T) {
	ts, reg, _ := testServer(t, true)

	bodies := []string{ // "" is GET /v1/stats
		`{"where": {"field": "year", "eq": 2020}, "limit": 10}`,
		`{"where": {"and": [{"field": "year", "eq": 2023}, {"field": "tool", "eq": "masscan"}]}, "limit": 10}`,
		`{"group_by": ["port"], "aggs": [{"op": "count"}, {"op": "sum", "field": "packets"}], "limit": 5}`,
		`{"where": {"field": "qualified", "eq": true}, "group_by": ["tool"], "aggs": [{"op": "count"}]}`,
		`{"where": {"field": "year", "eq": 2020}, "group_by": ["type"], "aggs": [{"op": "count"}, {"op": "count_distinct", "field": "src"}]}`,
		"",
	}
	const goroutines, rounds = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				body := bodies[(g+i)%len(bodies)]
				var resp *http.Response
				var err error
				if body == "" {
					resp, err = http.Get(ts.URL + "/v1/stats")
				} else {
					resp, err = post(ts, body)
				}
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("request %q: %d", body, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("synserve.http.requests"); got != goroutines*rounds {
		t.Fatalf("requests %d, want %d", got, goroutines*rounds)
	}
	if snap.Counter("synserve.cache.hits") == 0 {
		t.Fatal("no cache hits after repeated identical queries")
	}
	if snap.Counter("synserve.http.errors") != 0 {
		t.Fatalf("errors %d", snap.Counter("synserve.http.errors"))
	}
}

// TestGracefulShutdown: SIGTERM (via the same signal.NotifyContext wiring
// main uses) drains the server and serve returns cleanly.
func TestGracefulShutdown(t *testing.T) {
	dir, _ := testStore(t, false)
	srv := openServer(t, Config{CacheBytes: 64 << 20}, obs.NewRegistry(), dir)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}

	if _, err := http.Get("http://" + ln.Addr().String() + "/v1/stats"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}
