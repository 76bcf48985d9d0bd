package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/query"
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
	ts, _, n := testServer(t, true)

	var got struct {
		Matched   uint64           `json:"matched"`
		Returned  int              `json:"returned"`
		Truncated bool             `json:"truncated"`
		Scans     []query.WireScan `json:"scans"`
	}
	postJSON(t, ts.URL, `{
		"where": {"and": [
			{"field": "year", "eq": 2020},
			{"field": "tool", "eq": "ZMap"}
		]},
		"limit": 40
	}`, &got)
	// testArchive gives every third scan to ZMap and its first half to 2020.
	if want := uint64(n / 2 / 3); got.Matched != want || got.Returned != 40 || len(got.Scans) != 40 || !got.Truncated {
		t.Fatalf("matched %d returned %d (%d scans) truncated %v; want %d / 40 / true",
			got.Matched, got.Returned, len(got.Scans), got.Truncated, want)
	}
	for _, sc := range got.Scans {
		if sc.Tool != "ZMap" || time.Unix(0, sc.StartNS).UTC().Year() != 2020 {
			t.Fatalf("filter leaked a %s scan from %d", sc.Tool, time.Unix(0, sc.StartNS).UTC().Year())
		}
	}
}

// TestQueryCanonicalCacheHit: semantically identical requests — different
// predicate order, different list order, duplicated values — canonicalize to
// one cache key.
func TestQueryCanonicalCacheHit(t *testing.T) {
	ts, _, _ := testServer(t, true)

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

	// An unknown value of a named-value field lists the names it takes.
	resp, out := postQuery(t, ts.URL, `{"where": {"field": "tool", "eq": "nessus"}}`)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(out, []byte("zmap")) {
		t.Errorf("unknown tool: %d %s, want 400 naming zmap", resp.StatusCode, out)
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
