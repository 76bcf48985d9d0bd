package synscan

// live_test drives the live ingest path end to end: syningest appends sealed
// segments to a store directory while a running synserve discovers them
// through manifest rescans — no restart — and a one-shot compaction merges
// them without changing a byte of any query result. The reference for
// correctness is a batch ingest of the same spool into one sealed segment,
// which must yield a byte-identical scan-list body.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// startServe launches a synserve binary on an ephemeral port and returns its
// base URL once the listener is up. The server is interrupted (graceful
// drain) at test cleanup.
func startServe(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting synserve: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(os.Interrupt)
		cmd.Wait()
	})

	// synserve logs "serving on http://<addr>" after binding; everything
	// after that line is drained in the background so the process never
	// blocks on a full pipe.
	sc := bufio.NewScanner(stderr)
	var url string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "serving on "); i >= 0 {
			url = strings.TrimSpace(line[i+len("serving on "):])
			break
		}
	}
	if url == "" {
		out, _ := io.ReadAll(stderr)
		t.Fatalf("synserve never reported its address:\n%s", out)
	}
	go io.Copy(io.Discard, stderr)
	return url
}

// getBody GETs url and returns the raw response body, failing on transport
// errors or non-200 statuses.
func getBody(t *testing.T, url string) []byte {
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
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, body)
	}
	return body
}

// allScans is the scan-list query whose bodies the live and batch paths must
// agree on byte for byte.
const allScans = `{"limit":100000}`

// postBody POSTs query to base's /v1/query and returns the raw response body,
// failing on transport errors or non-200 statuses.
func postBody(t *testing.T, base, query string) []byte {
	t.Helper()
	resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d\n%s", query, resp.StatusCode, body)
	}
	return body
}

// storeStats polls /v1/stats and returns the first store's segment and scan
// counts.
func storeStats(t *testing.T, base string) (segments int, scans uint64) {
	t.Helper()
	var stats struct {
		Stores []struct {
			Segments int    `json:"segments"`
			Scans    uint64 `json:"scans"`
		} `json:"stores"`
	}
	if err := json.Unmarshal(getBody(t, base+"/v1/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Stores) != 1 {
		t.Fatalf("want 1 store in stats, got %d", len(stats.Stores))
	}
	return stats.Stores[0].Segments, stats.Stores[0].Scans
}

// TestLiveIngestServe: the ISSUE-6 acceptance path. syningest seals >= 3
// segments into a store while synserve is already running over it; the
// server's rescan loop discovers them without restart; a one-shot compaction
// merges them; and at every step the scan-list body is byte-identical to the
// one served from a single sealed archive produced by the batch path over
// the same capture.
func TestLiveIngestServe(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	dir := t.TempDir()
	syntelescope := buildTool(t, dir, "syntelescope")
	syningest := buildTool(t, dir, "syningest")
	synserve := buildTool(t, dir, "synserve")

	spool := filepath.Join(dir, "capture.spool")
	out, err := exec.Command(syntelescope,
		"-year", "2019", "-seed", "4", "-scale", "0.0003",
		"-telescope", "2048", "-format", "spool", "-out", spool).CombinedOutput()
	if err != nil {
		t.Fatalf("syntelescope: %v\n%s", err, out)
	}

	// Batch reference: one sealed segment from the same spool. The "N
	// campaigns" of the summary line tells us how many scans to expect
	// everywhere else.
	ref := filepath.Join(dir, "reference")
	out, err = exec.Command(syningest, "-dir", ref, "-seal-every", "0", spool).CombinedOutput()
	if err != nil {
		t.Fatalf("syningest reference: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`(\d+) campaigns`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("syningest output missing campaign count:\n%s", out)
	}
	nScans, _ := strconv.Atoi(string(m[1]))
	if nScans < 8 {
		t.Fatalf("capture too small to exercise rotation: %d flows", nScans)
	}

	store := filepath.Join(dir, "store")
	if err := os.MkdirAll(store, 0o755); err != nil {
		t.Fatal(err)
	}

	// The server starts over the still-empty store and stays up for the
	// whole test: every later observation is a live discovery, not a reload.
	base := startServe(t, synserve, "-rescan", "50ms", store)

	var res struct {
		Matched  uint64 `json:"matched"`
		Degraded bool   `json:"degraded"`
	}
	if err := json.Unmarshal(postBody(t, base, allScans), &res); err != nil {
		t.Fatal(err)
	}
	if res.Matched != 0 || res.Degraded {
		t.Fatalf("empty store: matched=%d degraded=%v", res.Matched, res.Degraded)
	}

	// Ingest the spool with a rotation bound small enough to seal at least
	// four segments while the server is running.
	segScans := (nScans + 3) / 4
	out, err = exec.Command(syningest,
		"-dir", store, "-segment-scans", fmt.Sprint(segScans),
		"-seal-every", "0", spool).CombinedOutput()
	if err != nil {
		t.Fatalf("syningest: %v\n%s", err, out)
	}

	// The running server must observe every sealed segment within its
	// rescan interval — no restart.
	deadline := time.Now().Add(10 * time.Second)
	var segs int
	var scans uint64
	for {
		segs, scans = storeStats(t, base)
		if scans == uint64(nScans) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never discovered the full store: %d segments, %d/%d scans",
				segs, scans, nScans)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if segs < 3 {
		t.Fatalf("ingest sealed only %d segments, want >= 3", segs)
	}

	liveBody := postBody(t, base, allScans)

	// Byte-level equivalence: a second synserve over the batch archive must
	// produce the identical scan-list body — same scans, same emit order,
	// same encoding.
	refBase := startServe(t, synserve, ref)
	refBody := postBody(t, refBase, allScans)
	if !bytes.Equal(liveBody, refBody) {
		t.Fatalf("live store and sealed archive disagree:\n live: %.300s\n ref:  %.300s",
			liveBody, refBody)
	}

	// One-shot compaction merges the small segments; the running server
	// picks up the new (smaller) segment set and the body still matches
	// byte for byte.
	out, err = exec.Command(syningest, "-dir", store, "-compact-now",
		"-compact-min", "2", "-compact-max-bytes", fmt.Sprint(1<<30)).CombinedOutput()
	if err != nil {
		t.Fatalf("syningest -compact-now: %v\n%s", err, out)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		now, scansNow := storeStats(t, base)
		if now < segs && scansNow == uint64(nScans) {
			segs = now
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never observed compaction: still %d segments", now)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if body := postBody(t, base, allScans); !bytes.Equal(body, refBody) {
		t.Fatalf("post-compaction body diverged:\n got: %.300s\n ref: %.300s", body, refBody)
	}
}

// TestLiveIngestReactive: live store ≡ sealed archive holds behind a reactive
// telescope too: a store rotated every 2000 campaigns and one sealed at the
// end, both ingested from one reactive spool, serve byte-identical scans and
// the same — non-zero — number of two-phase campaigns; syningest used to
// drop every phase-two segment.
func TestLiveIngestReactive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	dir := t.TempDir()
	syntelescope := buildTool(t, dir, "syntelescope")
	syningest := buildTool(t, dir, "syningest")
	synserve := buildTool(t, dir, "synserve")

	spool := filepath.Join(dir, "reactive.spool")
	if out, err := exec.Command(syntelescope,
		"-year", "2021", "-seed", "4", "-scale", "0.0005", "-telescope", "2048",
		"-reactive", "-format", "spool", "-out", spool).CombinedOutput(); err != nil {
		t.Fatalf("syntelescope -reactive: %v\n%s", err, out)
	}
	ref := filepath.Join(dir, "reference")
	if out, err := exec.Command(syningest, "-reactive", "-dir", ref, "-seal-every", "0", spool).CombinedOutput(); err != nil {
		t.Fatalf("syningest -reactive reference: %v\n%s", err, out)
	}
	store := filepath.Join(dir, "store")
	if out, err := exec.Command(syningest, "-reactive", "-dir", store,
		"-segment-scans", "2000", "-seal-every", "0", spool).CombinedOutput(); err != nil {
		t.Fatalf("syningest -reactive: %v\n%s", err, out)
	}

	twoPhase := func(base string) uint64 {
		var res struct {
			Matched uint64 `json:"matched"`
		}
		body := postBody(t, base, `{"where":{"field":"two_phase","eq":true},"aggs":[{"op":"count"}]}`)
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		return res.Matched
	}
	live, batch := startServe(t, synserve, store), startServe(t, synserve, ref)
	if l, b := twoPhase(live), twoPhase(batch); l != b || b == 0 {
		t.Fatalf("two-phase campaigns: live store %d, sealed archive %d", l, b)
	}
	liveBody := postBody(t, live, allScans)
	refBody := postBody(t, batch, allScans)
	if !bytes.Equal(liveBody, refBody) {
		t.Fatalf("live store and sealed archive disagree:\n live: %.300s\n ref:  %.300s", liveBody, refBody)
	}
}
