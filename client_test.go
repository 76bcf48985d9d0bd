package synscan

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/fingerprint"
	"github.com/synscan/synscan/internal/serve"
)

// TestClientRetriesOverload: 429 + Retry-After is retried (honoring the
// hint) until the server admits the request, and the final result decodes.
func TestClientRetriesOverload(t *testing.T) {
	var calls atomic.Int32
	var sawRetryWait atomic.Bool
	var last atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		now := time.Now().UnixNano()
		if prev := last.Swap(now); prev != 0 && time.Duration(now-prev) >= time.Second {
			sawRetryWait.Store(true)
		}
		if n <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"server overloaded"}`))
			return
		}
		w.Write([]byte(`{"matched":42,"total_rows":1,"degraded":false,
			"rows":[{"key":[{"field":"tool","num":1,"str":"zmap"}],"aggs":[{"count":42}]}]}`))
	}))
	defer ts.Close()

	c := NewClient(ts.URL,
		WithRetries(3),
		WithBackoff(time.Millisecond, 10*time.Millisecond),
		WithClientSeed(7))
	q, err := NewQuery().Count().Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunRemoteQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 42 {
		t.Fatalf("Matched = %d, want 42", res.Matched)
	}
	// Aggregate rows must decode: the server writes group keys with wire
	// field names ({"field":"tool"}), which Field.UnmarshalJSON resolves.
	if len(res.Rows) != 1 || len(res.Rows[0].Key) != 1 ||
		res.Rows[0].Key[0].Str != "zmap" || res.Rows[0].Aggs[0].Count != 42 {
		t.Fatalf("rows did not decode: %+v", res.Rows)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 rejections + success)", got)
	}
	if !sawRetryWait.Load() {
		t.Fatal("client ignored the 1s Retry-After hint (retries arrived sooner)")
	}
}

// TestClientExhaustsRetries: persistent overload surfaces as an
// HTTPStatusError carrying the final 429 after the retry budget is spent.
func TestClientExhaustsRetries(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"server overloaded"}`))
	}))
	defer ts.Close()

	c := NewClient(ts.URL, WithRetries(2), WithBackoff(time.Millisecond, 2*time.Millisecond))
	q, err := NewQuery().Count().Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.RunRemoteQuery(context.Background(), q)
	var se *HTTPStatusError
	if !errors.As(err, &se) {
		t.Fatalf("want *HTTPStatusError, got %v", err)
	}
	if se.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("StatusCode = %d, want 429", se.StatusCode)
	}
	if se.Body != "server overloaded" {
		t.Fatalf("Body = %q, want the decoded JSON error text", se.Body)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (initial + 2 retries)", got)
	}
}

// TestClientNoRetryOnClientError: 400s are the caller's fault; retrying
// them would hammer the server with the same broken request.
func TestClientNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"bad filter"}`))
	}))
	defer ts.Close()

	c := NewClient(ts.URL, WithRetries(5), WithBackoff(time.Millisecond, 2*time.Millisecond))
	q, err := NewQuery().Count().Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.RunRemoteQuery(context.Background(), q)
	var se *HTTPStatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400 HTTPStatusError, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want exactly 1 (no retry on 400)", got)
	}
}

// TestClientContextCancelDuringBackoff: a canceled context aborts the wait
// instead of sleeping out the full backoff.
func TestClientContextCancelDuringBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := NewClient(ts.URL, WithRetries(3))
	q, err := NewQuery().Count().Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.RunRemoteQuery(ctx, q)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancel took %v, backoff was not interrupted", el)
	}
}

// TestClientRemoteSelect: a select-mode query decodes the scan list with
// the wire field names.
func TestClientRemoteSelect(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/query" {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		// The POSTed body must be the wire form the server's parser accepts.
		var req struct {
			Where json.RawMessage `json:"where"`
			Limit int             `json:"limit"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("request body: %v", err)
		}
		if req.Limit != 5 || req.Where == nil {
			t.Errorf("request not in wire form: %+v", req)
		}
		w.Write([]byte(`{"matched":2,"returned":1,"truncated":true,"degraded":false,
			"scans":[{"src":"10.0.0.1","start_ns":1,"end_ns":2,"packets":100,
			"distinct_dsts":60,"ports":[443],"tool":"zmap","qualified":true,
			"rate_pps":1000,"coverage":0.5}]}`))
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	q, err := NewQuery().Years(2020).Limit(5).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunRemoteQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 2 || !res.Truncated || len(res.Scans) != 1 {
		t.Fatalf("bad decode: %+v", res)
	}
	sc := res.Scans[0]
	if sc.Src != "10.0.0.1" || sc.Tool != "zmap" || sc.Ports[0] != 443 || !sc.Qualified {
		t.Fatalf("scan fields mismatched: %+v", sc)
	}
}

// TestClientRemoteKeepsEveryKey: RemoteScan is the server's own row type, so a
// reactive, origin-carrying scan served by an in-process internal/serve comes
// back from RunRemoteQuery with its two-phase attributes and its origin — the
// keys a hand-kept copy of the struct had dropped.
func TestClientRemoteKeepsEveryKey(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenSegmentDir(dir, SegmentConfig{TelescopeSize: 2048, Origins: true})
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scan{
		Src: 0x0a000001, Start: 1_600_000_000_000_000_000, End: 1_600_000_060_000_000_000,
		Packets: 900, DistinctDsts: 300, Ports: []uint16{443}, Tool: ToolMasscan,
		Qualified: true, RatePPS: 1500, Coverage: 0.25,
		TwoPhase: true, ISN: fingerprint.ISNMixed, LinkedDsts: 40,
		ScoutPackets: 780, HandshakePackets: 120, PayloadBytes: 5000,
	}
	origin := Origin{Country: "NL", ASN: 64500, Type: TypeHosting, OrgName: "Example Hosting"}
	if err := w.AddWithOrigin(sc, origin); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.Open([]string{dir}, serve.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q, err := NewQuery().Where(QueryTwoPhaseIs(true)).Where(QueryISNIn(fingerprint.ISNMixed)).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewClient(ts.URL).RunRemoteQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scans) != 1 {
		t.Fatalf("got %d scans, want 1: %+v", len(res.Scans), res)
	}
	got := res.Scans[0]
	if !got.TwoPhase || got.ISN != "mixed" || got.LinkedDsts != 40 ||
		got.HandshakePackets != 120 || got.PayloadBytes != 5000 {
		t.Fatalf("reactive keys lost: %+v", got)
	}
	want := RemoteOrigin{Country: "NL", ASN: 64500, Type: "Hosting", OrgName: "Example Hosting"}
	if got.Origin == nil || *got.Origin != want {
		t.Fatalf("origin lost: %+v, want %+v", got.Origin, want)
	}
}

// TestClientValidatesLocally: a malformed query fails before any request.
func TestClientValidatesLocally(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("server must not be reached for a locally invalid query")
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	q := &Query{Limit: -1}
	if _, err := c.RunRemoteQuery(context.Background(), q); err == nil {
		t.Fatal("invalid query must fail locally")
	}
}
