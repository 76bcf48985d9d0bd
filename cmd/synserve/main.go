// Command synserve serves campaign archives over HTTP: flag wiring around
// internal/serve. It loads archive files written by synalyze -archive or
// syneval -archive-out, and/or live segment store directories written by
// syningest, and exposes their scans through two routes:
//
//	POST /v1/query   {"where": ..., "group_by": [...], "aggs": [...]}
//	GET  /v1/stats
//
// A query without group_by and aggs selects scans, e.g.
// {"where": {"field": "year", "eq": 2022}, "limit": 100}; any other path is
// a JSON 404. Zone-map pruning applies per query, and results are cached in
// a byte-bounded LRU (-cache-bytes) keyed on the canonicalized query. SIGINT
// or SIGTERM drains: new requests get 503 + Retry-After while in-flight ones
// finish.
//
// Identical cache-missing queries collapse into one execution
// (singleflight), at most -max-inflight scans run at once with the excess
// fast-failed as 429 + Retry-After, and every scan list is written record by
// record, never buffered whole. Each behaviour is observable via server.*
// counters and gauges at /v1/stats; cmd/synload is the matching load harness.
//
// Archives are opened skip-corrupt by default (-skip-corrupt=false to fail
// fast instead): checksum-failed blocks are skipped and counted, and every
// query response carries "degraded": true once any block was lost. -timeout
// bounds each query; an expired deadline returns 504 with a JSON error body.
//
// A directory argument is served as a live segment store: its manifest is
// re-read every -rescan interval, so segments sealed by a concurrently
// running syningest (and compactions merging them) become queryable without
// a restart. Result-cache entries are keyed on the store generation and
// invalidate when the segment set changes; degraded responses are never
// cached.
//
// Usage:
//
//	syneval -archive-out decade.syna
//	synserve -addr localhost:8080 decade.syna
//
//	syningest -dir store/ -follow spool.synl &
//	synserve -addr localhost:8080 -rescan 2s store/
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("synserve: ")

	var cfg serve.Config
	addr := flag.String("addr", "localhost:8080", "listen address")
	flag.IntVar(&cfg.Workers, "workers", 1, "block-decode workers per query; >1 decompresses surviving blocks in parallel")
	flag.Int64Var(&cfg.CacheBytes, "cache-bytes", 64<<20, "result-cache capacity in body bytes (0 disables caching)")
	flag.IntVar(&cfg.MaxInflight, "max-inflight", 2*runtime.GOMAXPROCS(0), "max concurrently executing archive scans; excess requests get 429 + Retry-After (0 = unbounded)")
	flag.DurationVar(&cfg.RetryAfter, "retry-after", time.Second, "Retry-After hint on 429/503 responses")
	flag.DurationVar(&cfg.Timeout, "timeout", 30*time.Second, "per-query deadline; expired queries return 504 (0 = no deadline)")
	flag.BoolVar(&cfg.SkipCorrupt, "skip-corrupt", true, "skip checksum-failed archive blocks instead of failing the query; responses carry degraded=true")
	flag.DurationVar(&cfg.Rescan, "rescan", 2*time.Second, "poll interval for discovering newly sealed segments in store directories (0 = only at startup)")
	// The registry is always live here: /v1/stats exposes it.
	reg, finish, err := obs.ParseFlags(obs.Served)
	if err != nil {
		log.Fatal(err)
	}
	defer finish() //nolint:errcheck // Served mode writes no snapshot: nothing to fail

	if cfg.Workers < 1 {
		log.Fatalf("-workers must be at least 1, got %d", cfg.Workers)
	}
	if flag.NArg() < 1 {
		log.Fatal("usage: synserve [flags] archive.syna|storedir [more...]")
	}
	srv, err := serve.Open(flag.Args(), cfg, reg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on http://%s", ln.Addr())
	if err := srv.Serve(ctx, ln); err != nil {
		log.Fatal(err)
	}
	log.Print("shut down cleanly")
}
