package serve

import (
	"context"
	"sync"

	"github.com/synscan/synscan/internal/query"
)

// flight is one in-progress query execution, shared by every request that
// asked for the same canonical cache key while it was running. The first
// request in becomes the leader and runs the archive scan; followers wait on
// done and read the shared outcome. waiters counts the requests still
// attached: when the last one disconnects before completion, the flight's
// execution context is canceled, so a scan nobody will read stops walking
// the archive instead of running to completion.
type flight struct {
	done     chan struct{}
	res      *query.Result
	degraded bool
	err      error

	mu      sync.Mutex
	waiters int
	cancel  context.CancelFunc
}

// setCancel installs the leader's execution-cancel hook. If every waiter
// already left in the window between join and here, cancel immediately: the
// flight was abandoned before it started.
func (f *flight) setCancel(cancel context.CancelFunc) {
	f.mu.Lock()
	f.cancel = cancel
	abandoned := f.waiters == 0
	f.mu.Unlock()
	if abandoned {
		cancel()
	}
}

// leave detaches one request (its client disconnected, or it stopped
// waiting). When the last attached request leaves an unfinished flight, the
// execution is canceled. Calling leave after the flight finished is
// harmless: canceling a completed execution context is a no-op.
func (f *flight) leave() {
	f.mu.Lock()
	f.waiters--
	cancel := f.cancel
	last := f.waiters == 0
	f.mu.Unlock()
	if last && cancel != nil {
		cancel()
	}
}

// flightGroup deduplicates identical in-flight queries, keyed by the same
// canonicalized generation-prefixed string the result cache uses. It is the
// layer between the cache (finished results) and the engine (running scans):
// a cache miss joins or starts a flight, so N identical concurrent misses
// cost one archive scan, and the cache fill happens once. Because the key
// carries the stores' catalog generations, requests pinned to different
// segment sets never share a flight.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// join returns the flight for key, creating it (leader == true) when none is
// running.
func (g *flightGroup) join(key string) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	if f := g.m[key]; f != nil {
		f.mu.Lock()
		f.waiters++
		f.mu.Unlock()
		return f, false
	}
	f = &flight{done: make(chan struct{}), waiters: 1}
	g.m[key] = f
	return f, true
}

// finish publishes the leader's outcome and retires the flight: later
// requests for the same key start fresh (or hit the cache the leader fed).
func (g *flightGroup) finish(key string, f *flight, res *query.Result, degraded bool, err error) {
	f.res, f.degraded, f.err = res, degraded, err
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
}
