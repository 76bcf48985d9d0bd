// Package serve is the HTTP query service over campaign archives and live
// segment stores: cmd/synserve wires flags onto it, cmd/synload and tests
// run it in-process.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/query"
)

// Config collects the serving-side tunables; cmd/synserve maps one flag onto
// each field.
type Config struct {
	// CacheBytes is the result cache's budget in body bytes; 0 disables
	// caching. One entry may take at most an eighth of it.
	CacheBytes int64
	// Timeout bounds each query's archive walk; 0 means no deadline. An
	// expired deadline surfaces as 504 with a JSON error body rather than a
	// half-written response, because the walk is aborted before rendering.
	Timeout time.Duration
	// MaxInflight bounds concurrently executing archive scans; excess
	// cache-missing requests fast-fail 429 + Retry-After (0 = unbounded).
	MaxInflight int
	// RetryAfter is the hint sent with 429/503 responses.
	RetryAfter time.Duration
	// Workers is the number of block-decode workers per query (Open only).
	Workers int
	// SkipCorrupt opens archives so that checksum-failed blocks are skipped
	// and counted instead of failing the query (Open only).
	SkipCorrupt bool
	// Rescan is the poll interval at which Serve re-reads store manifests
	// for newly sealed segments; 0 looks only at Open.
	Rescan time.Duration
}

// Server answers queries over campaign archives: static sealed files and/or
// live segment stores (directories written by syningest, polled for newly
// sealed segments). POST /v1/query is the one analytical endpoint: its body
// parses into an internal/query request that runs through the streaming
// engine under zone-map pushdown, behind the hardened execution path:
// result-cache lookup, singleflight deduplication of identical in-flight
// queries, and admission control that fast-fails 429 when too many scans are
// already running. Responses are cached in a byte-bounded LRU keyed on the
// canonicalized query prefixed with the stores' catalog generations, so any
// two spellings of the same request share one entry and cached bodies die
// with the segment set they were computed from; GET /v1/stats is always
// computed live (it exposes the moving metric counters, including the
// cache's own hit/miss tallies).
type Server struct {
	// srcs lists static files before live stores, whatever order they
	// were named in: that is the query order, so it fixes select-mode row
	// order and the archives / stores arrays of /v1/stats.
	srcs    []source
	cache   *lruCache
	reg     *obs.Registry
	timeout time.Duration
	rescan  time.Duration

	flights flightGroup
	adm     *admission
	// draining refuses new requests with 503 + Connection: close once
	// shutdown starts, so keep-alive clients move off while in-flight
	// requests finish.
	draining atomic.Bool
	// execHook, when set, runs in the flight leader after admission and
	// before the engine walk — a test seam for holding queries in flight.
	execHook func()

	mRequests, mErrors, mHits, mMisses *obs.Counter
	mLatency                           *obs.Histogram

	// Hardened-path metrics (the server.* family).
	mAdmitted, mRejected  *obs.Counter
	mSFLeaders, mSFShared *obs.Counter
	mStreamed             *obs.Counter
	mDrainRefused         *obs.Counter

	// Engine metrics.
	mQueryRequests, mQueryParseErrors *obs.Counter
	mQueryRows, mQueryPartials        *obs.Counter
	mQueryExec                        *obs.Histogram
}

// Open opens every argument — a directory as a live segment store, anything
// else as a sealed archive file — and returns a server over them. On error
// nothing stays open.
func Open(args []string, cfg Config, reg *obs.Registry) (*Server, error) {
	var files, stores []source
	for _, arg := range args {
		src, err := openSource(arg, cfg, reg)
		if err != nil {
			for _, o := range append(files, stores...) {
				o.close()
			}
			return nil, err
		}
		if _, ok := src.(*store); ok {
			stores = append(stores, src)
		} else {
			files = append(files, src)
		}
	}
	return newServer(append(files, stores...), cfg, reg), nil
}

func newServer(srcs []source, cfg Config, reg *obs.Registry) *Server {
	s := &Server{
		srcs:    srcs,
		cache:   newLRU(cfg.CacheBytes),
		reg:     reg,
		timeout: cfg.Timeout,
		rescan:  cfg.Rescan,
		adm:     newAdmission(cfg.MaxInflight, cfg.RetryAfter),

		mRequests: reg.Counter("synserve.http.requests"),
		mErrors:   reg.Counter("synserve.http.errors"),
		mHits:     reg.Counter("synserve.cache.hits"),
		mMisses:   reg.Counter("synserve.cache.misses"),
		mLatency:  reg.Histogram("synserve.http.latency_ns"),

		mAdmitted:     reg.Counter("server.admission.admitted"),
		mRejected:     reg.Counter("server.admission.rejected"),
		mSFLeaders:    reg.Counter("server.singleflight.leaders"),
		mSFShared:     reg.Counter("server.singleflight.shared"),
		mStreamed:     reg.Counter("server.stream.responses"),
		mDrainRefused: reg.Counter("server.drain.refused"),

		mQueryRequests:    reg.Counter("query.requests"),
		mQueryParseErrors: reg.Counter("query.parse_errors"),
		mQueryRows:        reg.Counter("query.rows"),
		mQueryPartials:    reg.Counter("query.partials_merged"),
		mQueryExec:        reg.Histogram("query.exec_ns"),
	}
	reg.GaugeFunc("server.inflight", s.adm.inflight)
	reg.GaugeFunc("server.cache.bytes", s.cache.bytesUsed)
	reg.GaugeFunc("server.cache.entries", func() int64 { return int64(s.cache.len()) })
	return s
}

// Close closes every archive and store the server was opened over.
func (s *Server) Close() {
	for _, src := range s.srcs {
		src.close()
	}
}

// startDrain flips the server into draining mode: every new request is
// refused with 503 + Retry-After while already-admitted work finishes.
func (s *Server) startDrain() { s.draining.Store(true) }

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.route(http.MethodPost, s.handleQuery))
	mux.HandleFunc("/v1/stats", s.route(http.MethodGet, s.handleStats))
	mux.HandleFunc("/", s.route("", notFound))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.mDrainRefused.Inc()
			w.Header().Set("Connection", "close")
			w.Header().Set("Retry-After", s.adm.retryAfterHeader())
			writeJSONError(w, http.StatusServiceUnavailable, "server draining")
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// shutdownTimeout bounds the in-flight request drain after ctx is canceled.
const shutdownTimeout = 10 * time.Second

// Serve runs the server on ln until ctx is canceled, re-reading every
// store's manifest each Config.Rescan meanwhile, then drains gracefully: the
// server stops admitting (new requests get 503 + Connection: close, so
// keep-alive clients move off), the listener closes, and in-flight requests
// get up to shutdownTimeout to finish. A drain that completes returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	ctx, cancel := context.WithCancel(ctx)
	rescanned := make(chan struct{})
	go func() {
		defer close(rescanned)
		s.rescanLoop(ctx)
	}()
	// Close may follow Serve, so the rescan loop must be out of the
	// catalogs before Serve returns.
	defer func() { cancel(); <-rescanned }()

	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.startDrain()
	hs.SetKeepAlivesEnabled(false)
	sctx, scancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// rescanLoop refreshes every source each Config.Rescan until ctx is done.
func (s *Server) rescanLoop(ctx context.Context) {
	if s.rescan <= 0 {
		return
	}
	t := time.NewTicker(s.rescan)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			for _, src := range s.srcs {
				src.refresh()
			}
		}
	}
}

// httpError carries a status code through the handler's error return.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// errOverloaded is the admission-control fast-fail: every slot is running a
// scan, so the request is bounced immediately with a retry hint rather than
// queued behind work that may never drain.
var errOverloaded = &httpError{
	code: http.StatusTooManyRequests,
	msg:  "server overloaded: too many in-flight scans, retry after the hinted interval",
}

// errCode maps a handler error onto an HTTP status: explicit httpErrors keep
// their code, engine client errors (malformed or over-cap queries) are 400s,
// an expired per-query deadline is a 504, anything else a 500.
func errCode(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.code
	}
	if query.IsClientError(err) {
		return http.StatusBadRequest
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// writeError renders err with its mapped status, attaching the Retry-After
// hint to backpressure statuses so well-behaved clients (the facade's
// retrying Client among them) know when to come back.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := errCode(err)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", s.adm.retryAfterHeader())
	}
	writeJSONError(w, code, err.Error())
}

// route wraps every handler with what they all share: the latency span, the
// request and error counters, the method check (an empty method accepts
// any), the request-body bound, source pinning for the life of the request,
// and JSON error rendering of whatever h returns.
func (s *Server) route(method string, h func(w http.ResponseWriter, r *http.Request, src *sources) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sp := obs.StartSpan(s.mLatency)
		defer sp.End()
		s.mRequests.Inc()
		if method != "" && r.Method != method {
			s.mErrors.Inc()
			msg := "method not allowed"
			if method == http.MethodPost {
				msg += " (POST a JSON query)"
			}
			writeJSONError(w, http.StatusMethodNotAllowed, msg)
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxQueryBody)
		src := s.acquire()
		defer src.release()
		if err := h(w, r, src); err != nil {
			s.mErrors.Inc()
			s.writeError(w, err)
		}
	}
}

// notFound answers every path the mux does not route, whatever the method.
func notFound(_ http.ResponseWriter, r *http.Request, _ *sources) error {
	return &httpError{
		code: http.StatusNotFound,
		msg:  fmt.Sprintf("no such endpoint %s %s (POST /v1/query)", r.Method, r.URL.Path),
	}
}

// execute drives one parsed, canonicalized query through the hardened path:
//
//	cache lookup → singleflight join → admission control → engine run
//	under the per-query deadline → render (a scan list streams, aggregate
//	rows are buffered) → cache fill.
//
// The flight leader runs the scan under a context detached from its own
// request (followers may outlive the leader's client) but canceled when the
// last attached request disconnects, so abandoned scans stop instead of
// running to completion.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, src *sources, q *query.Query, key string) error {
	if body, ok := s.cache.get(key); ok {
		s.mHits.Inc()
		writeJSON(w, body, "hit")
		return nil
	}
	s.mMisses.Inc()

	f, leader := s.flights.join(key)
	cacheState := "shared"
	if leader {
		cacheState = "miss"
		s.mSFLeaders.Inc()
		s.runFlight(r.Context(), src, q, key, f)
	} else {
		s.mSFShared.Inc()
		select {
		case <-f.done:
		case <-r.Context().Done():
			// The client is gone; detach (possibly canceling the flight if
			// we were the last waiter) and write nothing.
			f.leave()
			return nil
		}
	}
	if f.err != nil {
		return f.err
	}

	if q.SelectMode() {
		s.streamScans(w, key, f.res, f.degraded, cacheState)
		return nil
	}
	body, err := marshalBody(renderRows(f.res, f.degraded))
	if err != nil {
		return err
	}
	// A degraded body (corrupt blocks skipped, a segment unreadable) is
	// never cached: the damage may heal — or be discovered — without a
	// generation bump, and a cached incomplete result would outlive both.
	// The check runs after the engine walk so corruption found during this
	// very read already counts.
	if !f.degraded {
		s.cache.put(key, body)
	}
	writeJSON(w, body, cacheState)
	return nil
}

// runFlight is the leader's half of execute: admission control, the engine
// run under the per-query deadline, and publishing the shared outcome.
func (s *Server) runFlight(reqCtx context.Context, src *sources, q *query.Query, key string, f *flight) {
	if !s.adm.tryAcquire() {
		s.mRejected.Inc()
		s.flights.finish(key, f, nil, false, errOverloaded)
		return
	}
	defer s.adm.release()
	s.mAdmitted.Inc()

	// The flight context is detached from any single request but bounded by
	// the per-query deadline and by waiter interest: the watcher below makes
	// the leader's own disconnect count like a follower's, so a flight every
	// client abandoned cancels its scan.
	base := context.Background()
	var cancel context.CancelFunc
	ctx := base
	if s.timeout > 0 {
		ctx, cancel = context.WithTimeout(base, s.timeout)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	f.setCancel(cancel)
	defer cancel()
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-reqCtx.Done():
			f.leave()
		case <-watchDone:
		}
	}()
	defer close(watchDone)

	if s.execHook != nil {
		s.execHook()
	}
	res, err := src.runQuery(ctx, q)
	s.flights.finish(key, f, res, src.degraded(), err)
}

// streamFlushEvery is the record interval between chunked flushes of a
// streamed scan list.
const streamFlushEvery = 512

// streamScans renders every select-mode response incrementally: scans are
// encoded one by one straight into the response writer and flushed in
// chunks, so the server never materializes a second full copy of a huge
// body (the chunked transfer encoding replaces Content-Length once the body
// outgrows net/http's buffer). A tee buffer capped at the cache's per-entry
// bound still captures bodies small enough to cache; past the cap the tee
// stops buffering, making the per-request memory bound unconditional.
func (s *Server) streamScans(w http.ResponseWriter, key string, res *query.Result, degraded bool, cacheState string) {
	s.mStreamed.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheState)
	tee := newCapTee(w, s.cache.entryCap())
	fmt.Fprintf(tee, `{"matched":%d,"returned":%d,"truncated":%t,"degraded":%t,"scans":[`,
		res.Matched, len(res.Scans), res.Truncated, degraded)
	fl, _ := w.(http.Flusher)
	for i, rec := range res.Scans {
		if i > 0 {
			tee.Write([]byte{','})
		}
		b, err := json.Marshal(rec.Wire())
		if err != nil {
			// Mid-stream, the status is already written; truncating the body
			// is the only honest failure mode (and Marshal of a WireScan
			// cannot actually fail).
			return
		}
		tee.Write(b)
		if fl != nil && (i+1)%streamFlushEvery == 0 {
			fl.Flush()
		}
	}
	tee.Write([]byte("]}\n"))
	if body, ok := tee.buffered(); ok && !degraded {
		s.cache.put(key, body)
	}
}

// capTee writes through to an underlying writer while buffering a copy, up
// to a byte cap; once the cap is exceeded the buffer is dropped and only the
// pass-through continues.
type capTee struct {
	w        interface{ Write([]byte) (int, error) }
	buf      []byte
	cap      int64
	overflow bool
}

func newCapTee(w interface{ Write([]byte) (int, error) }, capBytes int64) *capTee {
	t := &capTee{w: w, cap: capBytes}
	if capBytes <= 0 {
		t.overflow = true // no cache to feed; never buffer
	}
	return t
}

func (t *capTee) Write(p []byte) (int, error) {
	if !t.overflow {
		if int64(len(t.buf)+len(p)) > t.cap {
			t.overflow = true
			t.buf = nil
		} else {
			t.buf = append(t.buf, p...)
		}
	}
	return t.w.Write(p)
}

// buffered returns the complete teed body, or ok == false when the cap was
// exceeded.
func (t *capTee) buffered() ([]byte, bool) {
	if t.overflow {
		return nil, false
	}
	return t.buf, true
}

// marshalBody renders a response value as one newline-terminated JSON body.
func marshalBody(out any) ([]byte, error) {
	body, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

func writeJSON(w http.ResponseWriter, body []byte, cache string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	w.Write(body)
}

// writeJSONError renders an error as {"error": ...} so API clients never
// have to sniff whether a failure body is text or JSON.
func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

type archiveInfo struct {
	Path          string `json:"path"`
	Blocks        int    `json:"blocks"`
	Scans         uint64 `json:"scans"`
	TelescopeSize int    `json:"telescope_size"`
	Origins       bool   `json:"origins"`
	// MinYear and MaxYear bound the archived scans' start years, from the
	// zone maps (the exact year set would need a decode).
	MinYear int `json:"min_year"`
	MaxYear int `json:"max_year"`
}

// storeInfo describes one live segment store in /v1/stats.
type storeInfo struct {
	Dir        string `json:"dir"`
	Generation uint64 `json:"generation"`
	Segments   int    `json:"segments"`
	Scans      uint64 `json:"scans"`
	Unreadable int    `json:"unreadable"`
}

// handleStats reports the loaded archives, the live segment stores, and a
// metrics snapshot (request/error counts, cache hits/misses, blocks scanned
// vs pruned, segment discovery/compaction counters, the server.* hardening
// family). Never cached: the counters move with every request.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request, src *sources) error {
	archives, stores := []archiveInfo{}, []storeInfo{}
	for _, p := range src.pins {
		switch info := p.info().(type) {
		case archiveInfo:
			archives = append(archives, info)
		case storeInfo:
			stores = append(stores, info)
		}
	}
	snap := s.reg.Snapshot()
	body, err := marshalBody(map[string]any{
		"archives":      archives,
		"stores":        stores,
		"cache_entries": s.cache.len(),
		"cache_bytes":   s.cache.bytesUsed(),
		"inflight":      s.adm.inflight(),
		"degraded":      src.degraded(),
		"faults":        snap.CountersWithPrefix("faults."),
		"metrics":       snap,
	})
	if err != nil {
		return err
	}
	writeJSON(w, body, "miss")
	return nil
}
