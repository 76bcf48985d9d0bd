package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"testing"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/query"
	"github.com/synscan/synscan/internal/tools"
)

func postQuery(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestQueryEndpointAggregates(t *testing.T) {
	ts, _, n := testServer(t, true)

	resp, body := postQuery(t, ts.URL, `{
		"group_by": ["tool"],
		"aggs": [{"op": "count"}, {"op": "count_distinct", "field": "src"}],
		"order_by": "key"
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res struct {
		Matched   uint64 `json:"matched"`
		TotalRows int    `json:"total_rows"`
		Rows      []struct {
			Key []struct {
				Field string `json:"field"`
				Str   string `json:"str"`
			} `json:"key"`
			Aggs []struct {
				Count uint64 `json:"count"`
			} `json:"aggs"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if res.Matched != uint64(n) {
		t.Fatalf("matched %d, want %d", res.Matched, n)
	}
	if res.TotalRows != 3 || len(res.Rows) != 3 {
		t.Fatalf("rows %d/%d, want 3 (archive has 3 tools)", len(res.Rows), res.TotalRows)
	}
	var count uint64
	for _, r := range res.Rows {
		count += r.Aggs[0].Count
		if r.Key[0].Field != "tool" || r.Key[0].Str == "" {
			t.Fatalf("bad key %+v", r.Key)
		}
		if r.Aggs[1].Count == 0 {
			t.Fatal("count_distinct src is zero")
		}
	}
	if count != uint64(n) {
		t.Fatalf("per-tool counts sum to %d, want %d", count, n)
	}
}

func TestQueryEndpointSelect(t *testing.T) {
	ts, _, _ := testServer(t, true)

	// The same filter through both surfaces must return the same scan list.
	resp, postBody := postQuery(t, ts.URL, `{
		"where": {"and": [
			{"field": "year", "eq": 2020},
			{"field": "tool", "eq": "ZMap"}
		]},
		"limit": 40
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, postBody)
	}
	var got, want struct {
		Matched   uint64           `json:"matched"`
		Returned  int              `json:"returned"`
		Truncated bool             `json:"truncated"`
		Scans     []query.WireScan `json:"scans"`
	}
	if err := json.Unmarshal(postBody, &got); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/v1/scans?year=2020&tool=zmap&limit=40", &want)
	if got.Matched != want.Matched || got.Returned != want.Returned || got.Truncated != want.Truncated {
		t.Fatalf("surfaces disagree: POST %d/%d/%v, GET %d/%d/%v",
			got.Matched, got.Returned, got.Truncated, want.Matched, want.Returned, want.Truncated)
	}
	for i := range got.Scans {
		gj, _ := json.Marshal(got.Scans[i])
		wj, _ := json.Marshal(want.Scans[i])
		if !bytes.Equal(gj, wj) {
			t.Fatalf("scan %d differs: %s vs %s", i, gj, wj)
		}
	}
}

// TestLegacyTablesParity recomputes the ports and tools tables with the
// pre-engine hand-rolled loops over the raw archive and requires the
// engine-backed endpoints to return byte-identical JSON.
func TestLegacyTablesParity(t *testing.T) {
	path, _ := testArchive(t, true)
	rd, err := archive.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })

	var scans []*core.Scan
	var origins []enrich.Origin
	if err := rd.Query(context.Background(), archive.All, func(sc *core.Scan, o *enrich.Origin) {
		scans = append(scans, sc)
		origins = append(origins, *o)
	}); err != nil {
		t.Fatal(err)
	}

	// Reference ports table: scans and split packets per port, share of all
	// scans, ranked by scans desc / port asc, top 5.
	type pagg struct{ scans, packets uint64 }
	byPort := map[uint16]*pagg{}
	for _, sc := range scans {
		for _, p := range sc.Ports {
			a := byPort[p]
			if a == nil {
				a = &pagg{}
				byPort[p] = a
			}
			a.scans++
			a.packets += sc.Packets / uint64(len(sc.Ports))
		}
	}
	total := uint64(len(scans))
	wantPorts := make([]portRow, 0, len(byPort))
	for p, a := range byPort {
		wantPorts = append(wantPorts, portRow{
			Port: p, Scans: a.scans, Packets: a.packets,
			Share: float64(a.scans) / float64(total),
		})
	}
	sort.Slice(wantPorts, func(i, j int) bool {
		if wantPorts[i].Scans != wantPorts[j].Scans {
			return wantPorts[i].Scans > wantPorts[j].Scans
		}
		return wantPorts[i].Port < wantPorts[j].Port
	})
	wantPorts = wantPorts[:5]
	wantPortsJSON, _ := json.Marshal(map[string]any{
		"total_scans": total, "ports": wantPorts, "degraded": false,
	})

	// Reference tools table: canonical display order, zero rows skipped.
	scansPer := make([]uint64, tools.NumTools())
	qualPer := make([]uint64, tools.NumTools())
	for _, sc := range scans {
		scansPer[sc.Tool]++
		if sc.Qualified {
			qualPer[sc.Tool]++
		}
	}
	wantTools := []toolRow{}
	for _, tl := range append([]tools.Tool{tools.ToolUnknown}, tools.Tools...) {
		if scansPer[tl] == 0 {
			continue
		}
		wantTools = append(wantTools, toolRow{
			Tool: tl.String(), Scans: scansPer[tl], Qualified: qualPer[tl],
			Share: float64(scansPer[tl]) / float64(total),
		})
	}
	wantToolsJSON, _ := json.Marshal(map[string]any{
		"total_scans": total, "tools": wantTools, "degraded": false,
	})

	// Reference origins table: per-type distinct sources, unsplit packets,
	// sorted by scans desc then type name asc.
	type oagg struct {
		srcs           map[uint32]struct{}
		scans, packets uint64
	}
	byType := map[inetmodel.ScannerType]*oagg{}
	for i, sc := range scans {
		o := origins[i]
		a := byType[o.Type]
		if a == nil {
			a = &oagg{srcs: map[uint32]struct{}{}}
			byType[o.Type] = a
		}
		a.srcs[sc.Src] = struct{}{}
		a.scans++
		a.packets += sc.Packets
	}
	wantOrigins := []originRow{}
	for typ, a := range byType {
		wantOrigins = append(wantOrigins, originRow{
			Type: typ.String(), Sources: len(a.srcs), Scans: a.scans, Packets: a.packets,
		})
	}
	sort.Slice(wantOrigins, func(i, j int) bool {
		if wantOrigins[i].Scans != wantOrigins[j].Scans {
			return wantOrigins[i].Scans > wantOrigins[j].Scans
		}
		return wantOrigins[i].Type < wantOrigins[j].Type
	})
	wantOriginsJSON, _ := json.Marshal(map[string]any{
		"types": wantOrigins, "degraded": false,
	})

	ts, _, _ := testServer(t, true)
	for _, tc := range []struct {
		url  string
		want []byte
	}{
		{"/v1/tables/ports?top=5", wantPortsJSON},
		{"/v1/tables/tools", wantToolsJSON},
		{"/v1/tables/origins", wantOriginsJSON},
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", tc.url, resp.StatusCode, got)
		}
		if string(bytes.TrimRight(got, "\n")) != string(tc.want) {
			t.Fatalf("GET %s not byte-identical to the hand-rolled table:\ngot  %s\nwant %s",
				tc.url, got, tc.want)
		}
	}
}

// TestQueryCanonicalCacheHit: semantically identical requests — different
// predicate order, different list order, duplicated values — canonicalize to
// one cache key, on both surfaces.
func TestQueryCanonicalCacheHit(t *testing.T) {
	ts, reg, _ := testServer(t, true)

	a := `{"where": {"and": [
		{"field": "year", "in": [2023, 2020, 2020]},
		{"field": "tool", "eq": "ZMap"}
	]}, "group_by": ["port"], "aggs": [{"op": "count"}], "limit": 5}`
	b := `{"where": {"and": [
		{"field": "tool", "in": ["ZMap"]},
		{"field": "year", "in": [2020, 2023]}
	]}, "group_by": ["port"], "aggs": [{"op": "count"}], "limit": 5}`

	r1, b1 := postQuery(t, ts.URL, a)
	r2, b2 := postQuery(t, ts.URL, b)
	if r1.StatusCode != http.StatusOK || r2.StatusCode != http.StatusOK {
		t.Fatalf("status %d/%d", r1.StatusCode, r2.StatusCode)
	}
	if c1, c2 := r1.Header.Get("X-Cache"), r2.Header.Get("X-Cache"); c1 != "miss" || c2 != "hit" {
		t.Fatalf("X-Cache %q then %q, want miss then hit", c1, c2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached body differs from computed body")
	}

	// Legacy surface: comma list vs repeated params vs reordered values all
	// compile to the same AST, hence the same key.
	get := func(q string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", q, resp.StatusCode)
		}
		return resp.Header.Get("X-Cache")
	}
	hits0 := reg.Snapshot().Counter("synserve.cache.hits")
	c1 := get("/v1/tables/ports?year=2020,2023&top=10")
	c2 := get("/v1/tables/ports?year=2023&year=2020&top=10")
	c3 := get("/v1/tables/ports?top=10&year=2020%2C2023")
	if c1 != "miss" || c2 != "hit" || c3 != "hit" {
		t.Fatalf("legacy X-Cache %q %q %q, want miss hit hit", c1, c2, c3)
	}
	if hits := reg.Snapshot().Counter("synserve.cache.hits"); hits != hits0+2 {
		t.Fatalf("cache hits moved %d, want 2", hits-hits0)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	ts, _, _ := testServer(t, false) // no origins

	for _, body := range []string{
		``,
		`{`,
		`{"unknown": 1}`,
		`{"where": {"field": "nope", "eq": 1}}`,
		`{"aggs": [{"op": "top_k", "field": "port", "k": 1000000000}]}`,
		`{"aggs": [{"op": "quantile", "field": "rate_pps", "qs": [2]}]}`,
		`{"group_by": ["country"], "aggs": [{"op": "count"}]}`, // needs origins
	} {
		resp, out := postQuery(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: %d, want 400 (%s)", body, resp.StatusCode, out)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
			t.Errorf("POST %q: error body %q", body, out)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query: %d, want 405", resp.StatusCode)
	}
}

func TestQueryMetrics(t *testing.T) {
	ts, reg, _ := testServer(t, true)

	postQuery(t, ts.URL, `{"group_by": ["year"], "aggs": [{"op": "count"}]}`)
	postQuery(t, ts.URL, `{broken`)
	snap := reg.Snapshot()
	if snap.Counter("query.requests") == 0 {
		t.Fatal("query.requests did not move")
	}
	if snap.Counter("query.parse_errors") != 1 {
		t.Fatalf("query.parse_errors = %d, want 1", snap.Counter("query.parse_errors"))
	}
	if snap.Counter("query.rows") == 0 {
		t.Fatal("query.rows did not move")
	}
	if snap.Counter("query.partials_merged") == 0 {
		t.Fatal("query.partials_merged did not move")
	}
	if snap.Histograms["query.exec_ns"].Count == 0 {
		t.Fatal("query.exec_ns recorded nothing")
	}
}
