// Package loadgen drives configurable client fleets against a synserve
// instance and reports exact latency quantiles, throughput, and a status
// breakdown, with an SLO gate for pass/fail use in CI and cmd/synload.
//
// A run is a fixed fleet of concurrent clients replaying a weighted request
// mix — cached and cache-busting scan selects, pushdown-pruned and
// full-scan aggregations, a per-port table — until a request budget or wall
// deadline is exhausted. Every client draws from its own deterministic
// stream (internal/rng derived from Config.Seed), so two runs with the same
// seed replay the same request sequence per client. Latencies are recorded
// per client without locks and merged once at the end, so the measured
// quantiles are exact, not histogram-bucketed approximations.
package loadgen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/rng"
)

// Request is one entry in a load mix. Path or PathFn names the target;
// PathFn receives a per-request sequence number so a mix entry can be
// cache-busting (vary the query string) while staying deterministic. A nil
// Body means no request body (GET unless Method says otherwise).
type Request struct {
	Name   string
	Method string // defaults to GET, or POST when Body is set
	Path   string
	PathFn func(i uint64) string
	Body   func(i uint64) []byte
	Weight int // relative frequency in the mix; <=0 means 1
}

func (r Request) method() string {
	if r.Method != "" {
		return r.Method
	}
	if r.Body != nil {
		return http.MethodPost
	}
	return http.MethodGet
}

func (r Request) path(i uint64) string {
	if r.PathFn != nil {
		return r.PathFn(i)
	}
	return r.Path
}

// Config describes one load run.
type Config struct {
	BaseURL  string
	Clients  int
	Requests uint64        // total request budget; 0 = run until Duration
	Duration time.Duration // wall deadline; 0 = run until Requests
	Mix      []Request
	Timeout  time.Duration // per-request timeout (0 = 10s)
	Seed     uint64
	Registry *obs.Registry // optional: loadgen.* counters and latency histogram
}

// Result is the merged outcome of a run.
type Result struct {
	Requests       uint64            `json:"requests"`
	Duration       float64           `json:"duration_s"`
	Throughput     float64           `json:"throughput_rps"`
	P50Ms          float64           `json:"p50_ms"`
	P90Ms          float64           `json:"p90_ms"`
	P99Ms          float64           `json:"p99_ms"`
	MaxMs          float64           `json:"max_ms"`
	Status         map[int]uint64    `json:"status"`
	ByName         map[string]uint64 `json:"by_name"`
	Rejected       uint64            `json:"rejected"` // 429 responses
	Errors         uint64            `json:"errors"`   // transport errors + 5xx
	RetryAfterSeen bool              `json:"retry_after_seen"`
}

// ErrorRate is Errors over total requests (0 when nothing ran).
func (r Result) ErrorRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Requests)
}

// RejectShare is 429s over total requests (0 when nothing ran).
func (r Result) RejectShare() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Rejected) / float64(r.Requests)
}

// SLO is a pass/fail gate over a Result. Zero-valued fields are unchecked.
type SLO struct {
	MaxP99         time.Duration // p99 latency ceiling
	MaxErrorRate   float64       // transport errors + 5xx, as a share of requests
	MaxRejectShare float64       // 429s as a share of requests
	MinThroughput  float64       // requests per second floor
}

// Check returns a joined error describing every violated objective, or nil.
func (r Result) Check(slo SLO) error {
	var errs []error
	if slo.MaxP99 > 0 && r.P99Ms > float64(slo.MaxP99)/1e6 {
		errs = append(errs, fmt.Errorf("p99 %.2fms exceeds SLO %.2fms",
			r.P99Ms, float64(slo.MaxP99)/1e6))
	}
	if slo.MaxErrorRate > 0 && r.ErrorRate() > slo.MaxErrorRate {
		errs = append(errs, fmt.Errorf("error rate %.4f exceeds SLO %.4f (%d errors)",
			r.ErrorRate(), slo.MaxErrorRate, r.Errors))
	}
	if slo.MaxRejectShare > 0 && r.RejectShare() > slo.MaxRejectShare {
		errs = append(errs, fmt.Errorf("429 share %.4f exceeds SLO %.4f (%d rejected)",
			r.RejectShare(), slo.MaxRejectShare, r.Rejected))
	}
	if slo.MinThroughput > 0 && r.Throughput < slo.MinThroughput {
		errs = append(errs, fmt.Errorf("throughput %.1f rps below SLO %.1f",
			r.Throughput, slo.MinThroughput))
	}
	return errors.Join(errs...)
}

// clientStats is one client's lock-free tally, merged after the run.
type clientStats struct {
	latencies  []time.Duration
	status     map[int]uint64
	byName     map[string]uint64
	errors     uint64
	retryAfter bool
}

// Run replays cfg.Mix against cfg.BaseURL and blocks until the request
// budget or deadline is exhausted (or ctx is canceled — a cancellation is
// not an error; the partial result is returned). Transport errors count
// toward Result.Errors rather than aborting the run: under deliberate
// overload some requests are supposed to fail.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.BaseURL == "" {
		return Result{}, errors.New("loadgen: BaseURL required")
	}
	if len(cfg.Mix) == 0 {
		return Result{}, errors.New("loadgen: empty request mix")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Requests == 0 && cfg.Duration == 0 {
		return Result{}, errors.New("loadgen: need Requests or Duration")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}

	// One transport for the whole fleet, sized so every client keeps its
	// connection alive — fleet-scale runs must measure the server, not
	// connection churn.
	tr := &http.Transport{
		MaxIdleConns:        cfg.Clients * 2,
		MaxIdleConnsPerHost: cfg.Clients * 2,
		IdleConnTimeout:     90 * time.Second,
	}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: cfg.Timeout}

	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	mReqs := cfg.Registry.Counter("loadgen.requests")
	mErrs := cfg.Registry.Counter("loadgen.errors")
	mLat := cfg.Registry.Histogram("loadgen.latency_ns")

	// Cumulative weights for O(log n) weighted choice.
	cum := make([]int, len(cfg.Mix))
	total := 0
	for i, m := range cfg.Mix {
		w := m.Weight
		if w <= 0 {
			w = 1
		}
		total += w
		cum[i] = total
	}

	var seq atomic.Uint64 // global request sequence, shared across clients
	stats := make([]clientStats, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(cfg.Seed).DeriveN("client", uint64(c))
			st := &stats[c]
			st.status = make(map[int]uint64)
			st.byName = make(map[string]uint64)
			for {
				if ctx.Err() != nil {
					return
				}
				i := seq.Add(1) - 1
				if cfg.Requests > 0 && i >= cfg.Requests {
					return
				}
				pick := r.Intn(total)
				idx := sort.SearchInts(cum, pick+1)
				m := cfg.Mix[idx]
				st.byName[m.Name]++
				mReqs.Inc()

				var body io.Reader
				if m.Body != nil {
					body = bytes.NewReader(m.Body(i))
				}
				req, err := http.NewRequestWithContext(ctx, m.method(), cfg.BaseURL+m.path(i), body)
				if err != nil {
					st.errors++
					mErrs.Inc()
					continue
				}
				if body != nil {
					req.Header.Set("Content-Type", "application/json")
				}
				t0 := time.Now()
				resp, err := hc.Do(req)
				el := time.Since(t0)
				if err != nil {
					if ctx.Err() != nil {
						return // deadline hit mid-request, not a server fault
					}
					st.errors++
					mErrs.Inc()
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				st.latencies = append(st.latencies, el)
				mLat.Observe(el.Nanoseconds())
				st.status[resp.StatusCode]++
				if resp.StatusCode >= 500 {
					st.errors++
					mErrs.Inc()
				}
				if resp.Header.Get("Retry-After") != "" {
					st.retryAfter = true
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	return merge(stats, elapsed), nil
}

// merge folds the per-client tallies into one Result with exact quantiles.
func merge(stats []clientStats, elapsed time.Duration) Result {
	res := Result{
		Duration: elapsed.Seconds(),
		Status:   make(map[int]uint64),
		ByName:   make(map[string]uint64),
	}
	var all []time.Duration
	for i := range stats {
		st := &stats[i]
		all = append(all, st.latencies...)
		for code, n := range st.status {
			res.Status[code] += n
			if code == http.StatusTooManyRequests {
				res.Rejected += n
			}
		}
		for name, n := range st.byName {
			res.ByName[name] += n
		}
		res.Errors += st.errors
		res.RetryAfterSeen = res.RetryAfterSeen || st.retryAfter
	}
	res.Requests = uint64(len(all)) + res.Errors
	if elapsed > 0 {
		res.Throughput = float64(res.Requests) / elapsed.Seconds()
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		res.P50Ms = quantile(all, 0.50)
		res.P90Ms = quantile(all, 0.90)
		res.P99Ms = quantile(all, 0.99)
		res.MaxMs = float64(all[len(all)-1]) / 1e6
	}
	return res
}

// quantile reads the exact q-quantile (nearest-rank) from sorted latencies,
// in milliseconds.
func quantile(sorted []time.Duration, q float64) float64 {
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / 1e6
}
