package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/obs"
)

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to count descriptors with: %v", err)
	}
	return len(ents)
}

// TestOpenMixedArgs: Open takes files and store directories in any order but
// always queries files first, so the two spellings of one argument set serve
// the same bytes; and an argument that cannot be opened fails the whole Open
// without leaking the ones before it.
func TestOpenMixedArgs(t *testing.T) {
	path, n := testArchive(t, false)
	dir := t.TempDir()
	sw, err := archive.OpenSegmentDir(dir, archive.SegmentConfig{TelescopeSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range storeScans(0, 40) {
		if err := sw.Add(sc); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	sw.Close()

	serveArgs := func(args ...string) (scans, stats []byte) {
		t.Helper()
		srv, err := Open(args, Config{Workers: 1, SkipCorrupt: true}, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		get := func(q string) []byte {
			resp, err := http.Get(ts.URL + q)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %d, %v", q, resp.StatusCode, err)
			}
			return body
		}
		return get("/v1/scans?limit=1000"), get("/v1/stats")
	}

	storeFirst, stats := serveArgs(dir, path)
	fileFirst, _ := serveArgs(path, dir)
	if string(storeFirst) != string(fileFirst) {
		t.Fatal("/v1/scans bytes depend on the argument order")
	}
	var res struct {
		Matched uint64 `json:"matched"`
		Scans   []struct {
			StartNS int64 `json:"start_ns"`
		} `json:"scans"`
	}
	if err := json.Unmarshal(storeFirst, &res); err != nil {
		t.Fatal(err)
	}
	if res.Matched != uint64(n+40) || len(res.Scans) != n+40 {
		t.Fatalf("matched %d, returned %d, want %d of both", res.Matched, len(res.Scans), n+40)
	}
	// The file's scans start in 2020 and 2023, the store's in 2022: file
	// first means the first row is the file's first scan.
	if first := storeScans(0, 1)[0].Start; res.Scans[0].StartNS == first || res.Scans[n].StartNS != first {
		t.Fatal("store given first was queried first")
	}
	var st struct {
		Archives []struct{ Path string } `json:"archives"`
		Stores   []struct{ Dir string }  `json:"stores"`
	}
	if err := json.Unmarshal(stats, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Archives) != 1 || st.Archives[0].Path != path || len(st.Stores) != 1 || st.Stores[0].Dir != dir {
		t.Fatalf("/v1/stats sources %+v", st)
	}

	before := openFDs(t)
	srv, err := Open([]string{dir, path, filepath.Join(dir, "no-such.syna")}, Config{Workers: 1}, obs.NewRegistry())
	if err == nil {
		srv.Close()
		t.Fatal("Open with a nonexistent argument succeeded")
	}
	if after := openFDs(t); after != before {
		t.Fatalf("failed Open left %d descriptors open", after-before)
	}
}

// TestWrongMethod: the one request wrapper answers a wrong-method request on
// any route with 405, a JSON error body, and one tick each of the request
// and error counters.
func TestWrongMethod(t *testing.T) {
	ts, reg, _ := testServer(t, true)
	routes := map[string]string{ // route → the method it does NOT accept
		"/v1/query":          http.MethodGet,
		"/v1/scans":          http.MethodPost,
		"/v1/tables/ports":   http.MethodPost,
		"/v1/tables/tools":   http.MethodPut,
		"/v1/tables/origins": http.MethodDelete,
		"/v1/stats":          http.MethodPost,
	}
	for route, method := range routes {
		before := reg.Snapshot()
		req, err := http.NewRequest(method, ts.URL+route, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %d, want 405", method, route, resp.StatusCode)
		}
		var e struct {
			Error string `json:"error"`
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" ||
			json.Unmarshal(body, &e) != nil || !strings.HasPrefix(e.Error, "method not allowed") {
			t.Errorf("%s %s: Content-Type %q, body %q; want a JSON error", method, route, ct, body)
		}
		after := reg.Snapshot()
		for _, c := range []string{"synserve.http.requests", "synserve.http.errors"} {
			if got := after.Counter(c) - before.Counter(c); got != 1 {
				t.Errorf("%s %s: %s moved by %d, want 1", method, route, c, got)
			}
		}
	}
}
