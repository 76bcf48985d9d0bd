package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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

// TestOpenArgs: Open queries its stores in argument order, so the row order
// of a scan list and the stores array of /v1/stats follow the command line;
// and an argument that is not a store directory — missing, a file such as a
// segment, or a store already named — fails the whole Open, naming the
// argument, without leaking the ones before it.
func TestOpenArgs(t *testing.T) {
	dirA, n := testStore(t, false)
	dirB := t.TempDir()
	sw, err := archive.OpenSegmentDir(dirB, archive.SegmentConfig{TelescopeSize: 1024})
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

	type scanList struct {
		Matched uint64 `json:"matched"`
		Scans   []struct {
			StartNS int64 `json:"start_ns"`
		} `json:"scans"`
	}
	serveArgs := func(args ...string) (res scanList, stores []storeInfo) {
		t.Helper()
		srv, err := Open(args, Config{Workers: 1, SkipCorrupt: true}, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		postJSON(t, ts.URL, `{"limit": 1000}`, &res)
		var st struct {
			Stores []storeInfo `json:"stores"`
		}
		getJSON(t, ts.URL+"/v1/stats", &st)
		return res, st.Stores
	}

	// A's scans start in 2020 and 2023, B's in 2022.
	first := storeScans(0, 1)[0].Start
	wantA := storeInfo{Dir: dirA, Segments: 1, Scans: uint64(n), TelescopeSize: 1024, MinYear: 2020, MaxYear: 2023}
	wantB := storeInfo{Dir: dirB, Segments: 1, Scans: 40, TelescopeSize: 1024, MinYear: 2022, MaxYear: 2022}
	for _, tc := range []struct {
		args   []string
		firstB int // index of B's first scan in the scan list
		want   []storeInfo
	}{
		{[]string{dirA, dirB}, n, []storeInfo{wantA, wantB}},
		{[]string{dirB, dirA}, 0, []storeInfo{wantB, wantA}},
	} {
		res, stores := serveArgs(tc.args...)
		if res.Matched != uint64(n+40) || len(res.Scans) != n+40 {
			t.Fatalf("%v: matched %d, returned %d, want %d of both", tc.args, res.Matched, len(res.Scans), n+40)
		}
		if res.Scans[tc.firstB].StartNS != first || (tc.firstB == 0) == (res.Scans[n].StartNS == first) {
			t.Fatalf("%v: stores not queried in argument order", tc.args)
		}
		for i := range stores {
			stores[i].Generation = 0
		}
		if !reflect.DeepEqual(stores, tc.want) {
			t.Fatalf("%v: /v1/stats stores %+v, want %+v", tc.args, stores, tc.want)
		}
	}

	before := openFDs(t)
	for _, bad := range []string{
		filepath.Join(dirB, "no-such"),
		segmentPath(dirA),
		filepath.Join(dirA, "..", filepath.Base(dirA)) + "/",
	} {
		srv, err := Open([]string{dirA, dirB, bad}, Config{Workers: 1}, obs.NewRegistry())
		if err == nil {
			srv.Close()
			t.Fatalf("Open with argument %s succeeded", bad)
		}
		if !strings.Contains(err.Error(), bad) {
			t.Errorf("Open error %q does not name the argument %s", err, bad)
		}
		if after := openFDs(t); after != before {
			t.Fatalf("failed Open (%s) left %d descriptors open", bad, after-before)
		}
	}
}

// TestWrongMethod: the one request wrapper answers a wrong method on a route
// with 405 and a path it does not route, whatever the method, with 404 —
// each with a JSON error body and one tick each of the request and error
// counters.
func TestWrongMethod(t *testing.T) {
	ts, reg, _ := testServer(t, true)
	for _, tc := range []struct {
		method, path string
		code         int
		msg          string // the error's prefix
	}{
		{http.MethodGet, "/v1/query", http.StatusMethodNotAllowed, "method not allowed"},
		{http.MethodPut, "/v1/query", http.StatusMethodNotAllowed, "method not allowed"},
		{http.MethodPost, "/v1/stats", http.StatusMethodNotAllowed, "method not allowed"},
		{http.MethodGet, "/v1/scans", http.StatusNotFound, "no such endpoint"},
		{http.MethodGet, "/v1/tables/ports", http.StatusNotFound, "no such endpoint"},
		{http.MethodGet, "/nope", http.StatusNotFound, "no such endpoint"},
	} {
		before := reg.Snapshot()
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s %s: %d, want %d", tc.method, tc.path, resp.StatusCode, tc.code)
		}
		var e struct {
			Error string `json:"error"`
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" ||
			json.Unmarshal(body, &e) != nil || !strings.HasPrefix(e.Error, tc.msg) {
			t.Errorf("%s %s: Content-Type %q, body %q; want a JSON error %q…", tc.method, tc.path, ct, body, tc.msg)
		}
		after := reg.Snapshot()
		for _, c := range []string{"synserve.http.requests", "synserve.http.errors"} {
			if got := after.Counter(c) - before.Counter(c); got != 1 {
				t.Errorf("%s %s: %s moved by %d, want 1", tc.method, tc.path, c, got)
			}
		}
	}
}
