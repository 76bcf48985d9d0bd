package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/faultinject"
	"github.com/synscan/synscan/internal/obs"
)

// TestQueryTimeout504: an expired per-query deadline surfaces as 504 with a
// JSON error body, not a 500 or a half-rendered response.
func TestQueryTimeout504(t *testing.T) {
	dir, _ := testStore(t, false)
	srv := openServer(t, Config{Timeout: time.Nanosecond}, obs.NewRegistry(), dir)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, body := postQuery(t, ts.URL, `{}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("error body %q not {\"error\": ...}: %v", body, err)
	}
}

// TestDegradedQuery is the end-to-end degraded-mode check: corrupt over 10%
// of a store's blocks with seeded fault injection, open it skip-corrupt as
// main does, and a select query must still complete — flagged
// degraded:true, with the corrupt-block counter equal to the number of
// blocks actually damaged.
func TestDegradedQuery(t *testing.T) {
	dir, n := testStore(t, false)
	path := segmentPath(dir)

	// Locate the blocks via a throwaway reader, then flip bytes inside
	// every fourth block's compressed payload (the CRC word is the first 4
	// bytes at Offset; damage lands past it, inside the DEFLATE stream).
	data, zones := segmentBlocks(t, dir)
	if len(zones) < 10 {
		t.Fatalf("test segment has only %d blocks; too coarse to corrupt 10%%", len(zones))
	}
	damaged := 0
	for i, z := range zones {
		if i%4 != 0 {
			continue
		}
		lo := int(z.Offset) + 4
		faultinject.FlipBytes(data, uint64(i+1), 3, lo, lo+int(z.CompressedLen))
		damaged++
	}
	if damaged*10 < len(zones) {
		t.Fatalf("damaged %d of %d blocks, below the 10%% bar", damaged, len(zones))
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	srv := openServer(t, Config{Timeout: 30 * time.Second, SkipCorrupt: true}, reg, dir)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var res struct {
		Matched  uint64 `json:"matched"`
		Degraded bool   `json:"degraded"`
	}
	postJSON(t, ts.URL, `{"limit": 10}`, &res)
	if !res.Degraded {
		t.Fatal("query over a corrupted store not flagged degraded")
	}
	if res.Matched == 0 || res.Matched >= uint64(n) {
		t.Fatalf("matched %d scans, want some but fewer than the intact %d", res.Matched, n)
	}
	v := srv.stores[0].cat.View()
	defer v.Release()
	if got := v.Reader(0).CorruptBlocks(); got != uint64(damaged) {
		t.Fatalf("CorruptBlocks() = %d, want the %d blocks damaged", got, damaged)
	}
	if got := reg.Snapshot().Counter("faults.archive.corrupt_blocks"); got != uint64(damaged) {
		t.Fatalf("faults.archive.corrupt_blocks = %d, want %d", got, damaged)
	}

	// The stats endpoint rolls the same counters up for operators.
	var stats struct {
		Degraded bool              `json:"degraded"`
		Faults   map[string]uint64 `json:"faults"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if !stats.Degraded || stats.Faults["faults.archive.corrupt_blocks"] != uint64(damaged) {
		t.Fatalf("stats degraded=%v faults=%v", stats.Degraded, stats.Faults)
	}
}
