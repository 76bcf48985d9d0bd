package synscan

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/synscan/synscan/internal/query"
	"github.com/synscan/synscan/internal/rng"
)

// Client is a retrying HTTP client for a synserve instance — the
// well-behaved counterpart to the server's admission control. Backpressure
// responses (429 Too Many Requests, 503 while draining) and transient
// upstream failures (502, 504) are retried with exponential backoff and
// deterministic jitter; when the server sends a Retry-After hint, the
// client honors it instead of guessing. Build one with NewClient.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
	maxWait time.Duration
	r       *rng.Rand
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithRetries sets how many times a retryable response is reattempted
// (default 3; 0 disables retrying).
func WithRetries(n int) ClientOption {
	return func(c *Client) { c.retries = n }
}

// WithBackoff sets the base and ceiling of the exponential backoff between
// retries (defaults 100ms and 5s). The n-th wait is base·2ⁿ ±25% jitter,
// capped at max — unless the server's Retry-After hint asks for longer.
func WithBackoff(base, max time.Duration) ClientOption {
	return func(c *Client) { c.backoff, c.maxWait = base, max }
}

// WithClientSeed seeds the jitter stream, making retry timing reproducible
// (defaults to 1; fleets should vary the seed per client or share one
// Client).
func WithClientSeed(seed uint64) ClientOption {
	return func(c *Client) { c.r = rng.New(seed).Derive("client-jitter") }
}

// NewClient builds a Client for the synserve at baseURL (e.g.
// "http://127.0.0.1:8080").
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{
		base:    baseURL,
		hc:      &http.Client{Timeout: 30 * time.Second},
		retries: 3,
		backoff: 100 * time.Millisecond,
		maxWait: 5 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	if c.r == nil {
		c.r = rng.New(1).Derive("client-jitter")
	}
	return c
}

// HTTPStatusError is a non-2xx response that survived the retry budget (or
// was not retryable at all). Body carries the server's JSON error text.
type HTTPStatusError struct {
	StatusCode int
	Body       string
}

func (e *HTTPStatusError) Error() string {
	return fmt.Sprintf("synserve: HTTP %d: %s", e.StatusCode, e.Body)
}

// retryable reports whether a status is worth reattempting: backpressure
// and transient upstream failures, never client errors.
func retryable(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// wait computes the pause before retry attempt n (0-based), honoring the
// server's Retry-After hint (whole seconds) when it asks for longer than
// the backoff would.
func (c *Client) wait(attempt int, retryAfter string) time.Duration {
	d := c.backoff << uint(attempt)
	if d > c.maxWait || d <= 0 {
		d = c.maxWait
	}
	// ±25% deterministic jitter so a rejected fleet does not resynchronize
	// into the same retry instant — the thundering herd it was bounced for.
	j := time.Duration(c.r.Int63n(int64(d)/2+1)) - d/4
	d += j
	if retryAfter != "" {
		if secs, err := strconv.Atoi(retryAfter); err == nil {
			if hint := time.Duration(secs) * time.Second; hint > d {
				d = hint
			}
		}
	}
	return d
}

// do issues one request (rebuilt per attempt — bodies cannot be replayed)
// with the retry/backoff policy, returning the final response body.
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			return b, nil
		}
		if !retryable(resp.StatusCode) || attempt >= c.retries {
			return nil, &HTTPStatusError{StatusCode: resp.StatusCode, Body: errText(b)}
		}
		select {
		case <-time.After(c.wait(attempt, resp.Header.Get("Retry-After"))):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// errText extracts the "error" field from a synserve JSON error body,
// falling back to the raw body.
func errText(b []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(b)
}

// RemoteScan is one selected scan as served by /v1/query: the server's own
// row type, so no served key can go missing here.
type RemoteScan = query.WireScan

// RemoteOrigin is a RemoteScan's enrichment origin, nil on a scan served from
// an archive that stores none.
type RemoteOrigin = query.WireOrigin

// RemoteResult is a /v1/query response: select mode fills Scans, aggregate
// mode fills Rows.
type RemoteResult struct {
	Matched   uint64       `json:"matched"`
	Returned  int          `json:"returned"`
	TotalRows int          `json:"total_rows"`
	Truncated bool         `json:"truncated"`
	Degraded  bool         `json:"degraded"`
	Scans     []RemoteScan `json:"scans"`
	Rows      []QueryRow   `json:"rows"`
}

// RunRemoteQuery executes q against the remote synserve via POST /v1/query,
// retrying through overload per the client's policy. The query is validated
// and canonicalized locally first, so malformed requests fail without a
// round trip.
func (c *Client) RunRemoteQuery(ctx context.Context, q *Query) (*RemoteResult, error) {
	q = q.Canonicalize()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	b, err := c.do(ctx, http.MethodPost, "/v1/query", body)
	if err != nil {
		return nil, err
	}
	var res RemoteResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("synscan: decoding /v1/query response: %w", err)
	}
	return &res, nil
}

// Stats fetches /v1/stats as raw JSON — archives, stores, cache and
// hardening counters.
func (c *Client) Stats(ctx context.Context) (json.RawMessage, error) {
	return c.do(ctx, http.MethodGet, "/v1/stats", nil)
}
