// Command synload drives a client fleet against synserve and gates the
// result on service-level objectives. It is the load harness behind the
// repo's production-hardening work: the CI load-smoke step and BENCH
// trajectory both run it (or its internal/loadgen engine) to prove the
// server stays within latency and error budgets under concurrency.
//
// Two targeting modes:
//
//   - -addr http://host:port points the fleet at an already-running server.
//   - Without -addr, synload self-serves: it writes a deterministic fixture
//     archive (-fixture scans, -seed) to a temp dir, serves it in-process
//     through internal/serve on a loopback port with synserve's default
//     settings, runs the fleet against it, and shuts it down. To load a
//     differently configured server (say -max-inflight 4, to force
//     overload), start synserve yourself and point -addr at it.
//
// The mix (-mix standard|hot) replays production-shaped POST /v1/query
// traffic: cached and cache-busting scan selects, pushdown-pruned and
// full-scan aggregations, a per-port table ("standard"), or a single identical
// expensive query from every client ("hot", the singleflight worst case).
//
// SLO flags turn the run into a pass/fail gate; any violation exits 1:
//
//	synload -clients 1000 -requests 20000 \
//	  -slo-p99 2s -slo-error-rate 0.01 -slo-reject-share 0.5
//
// -out writes the full loadgen.Result as JSON. After a self-served run the
// server's /v1/stats metrics are fetched and the hardening counters
// (admission, singleflight, streaming) are reported alongside the client
// view.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/synscan/synscan/internal/loadgen"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("synload: ")
	// run returns before the process exits, so its deferred cleanup (the
	// self-served fixture's temp dir) happens on failure too.
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	addr := flag.String("addr", "", "target base URL (e.g. http://127.0.0.1:8080); empty = self-serve a fixture")
	fixture := flag.Int("fixture", 20000, "scans in the self-served fixture archive")
	store := flag.String("store", "", "self-serve this existing archive/store instead of generating a fixture")
	clients := flag.Int("clients", 1000, "concurrent clients in the fleet")
	requests := flag.Uint64("requests", 0, "total request budget (0 = run for -duration)")
	duration := flag.Duration("duration", 10*time.Second, "wall deadline when -requests is 0")
	mixName := flag.String("mix", "standard", "request mix: standard or hot")
	seed := flag.Uint64("seed", 1, "deterministic seed for fixture and per-client request streams")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	out := flag.String("out", "", "write the result as JSON to this file")
	sloP99 := flag.Duration("slo-p99", 0, "fail if p99 latency exceeds this (0 = unchecked)")
	sloErr := flag.Float64("slo-error-rate", 0, "fail if (transport errors + 5xx)/requests exceeds this (0 = unchecked)")
	sloRej := flag.Float64("slo-reject-share", 0, "fail if 429s/requests exceeds this (0 = unchecked)")
	sloRPS := flag.Float64("slo-throughput", 0, "fail if requests/second falls below this (0 = unchecked)")
	flag.Parse()

	var mix []loadgen.Request
	switch *mixName {
	case "standard":
		mix = loadgen.StandardMix()
	case "hot":
		mix = loadgen.HotMix()
	default:
		return fmt.Errorf("unknown -mix %q (want standard or hot)", *mixName)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := *addr
	var statsURL string
	if base == "" {
		selfBase, stopServer, err := selfServe(ctx, *store, *fixture, *seed)
		if err != nil {
			return err
		}
		defer stopServer()
		base, statsURL = selfBase, selfBase+"/v1/stats"
	}

	reqs := *requests
	dur := time.Duration(0)
	if reqs == 0 {
		dur = *duration
	}
	log.Printf("running %d clients, mix=%s, requests=%d duration=%v seed=%d",
		*clients, *mixName, reqs, dur, *seed)

	res, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:  base,
		Clients:  *clients,
		Requests: reqs,
		Duration: dur,
		Mix:      mix,
		Timeout:  *timeout,
		Seed:     *seed,
	})
	if err != nil {
		return err
	}

	fmt.Printf("requests   %d in %.2fs (%.1f rps)\n", res.Requests, res.Duration, res.Throughput)
	fmt.Printf("latency    p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n",
		res.P50Ms, res.P90Ms, res.P99Ms, res.MaxMs)
	fmt.Printf("status     %v\n", res.Status)
	fmt.Printf("rejected   %d (%.2f%%)  errors %d (%.2f%%)  retry-after seen: %v\n",
		res.Rejected, 100*res.RejectShare(), res.Errors, 100*res.ErrorRate(), res.RetryAfterSeen)
	for name, n := range res.ByName {
		fmt.Printf("  mix %-16s %d\n", name, n)
	}
	if statsURL != "" {
		reportServerCounters(statsURL)
	}

	if *out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s", *out)
	}

	slo := loadgen.SLO{
		MaxP99:         *sloP99,
		MaxErrorRate:   *sloErr,
		MaxRejectShare: *sloRej,
		MinThroughput:  *sloRPS,
	}
	if err := res.Check(slo); err != nil {
		return fmt.Errorf("SLO FAIL:\n%v", err)
	}
	if slo != (loadgen.SLO{}) {
		log.Print("SLO PASS")
	}
	return nil
}

// selfServe serves the target store — an existing path or, when target is
// empty, a fixture archive freshly written to a temp dir — in this process
// on a loopback port, under synserve's default settings. Canceling ctx
// drains the server; stop does that too, then waits for Serve, removes the
// temp dir and reports how Serve ended.
func selfServe(ctx context.Context, target string, fixture int, seed uint64) (base string, stop func() error, err error) {
	tmp := ""
	defer func() {
		if err != nil {
			os.RemoveAll(tmp)
		}
	}()
	if target == "" {
		if tmp, err = os.MkdirTemp("", "synload"); err != nil {
			return "", nil, err
		}
		target = filepath.Join(tmp, "fixture.syna")
		if err = loadgen.WriteFixtureArchive(target, fixture, seed); err != nil {
			return "", nil, fmt.Errorf("writing fixture: %w", err)
		}
		log.Printf("wrote fixture archive: %d scans", fixture)
	}
	srv, err := serve.Open([]string{target}, serve.Config{
		Workers:     1,
		CacheBytes:  64 << 20,
		MaxInflight: 2 * runtime.GOMAXPROCS(0),
		RetryAfter:  time.Second,
		Timeout:     30 * time.Second,
		SkipCorrupt: true,
		Rescan:      2 * time.Second,
	}, obs.NewRegistry())
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	base = "http://" + ln.Addr().String()
	log.Printf("self-serving %s at %s", target, base)
	return base, func() error {
		cancel()
		err := <-served
		srv.Close()
		os.RemoveAll(tmp)
		return err
	}, nil
}

// reportServerCounters fetches /v1/stats and prints the server.* hardening
// family — the server-side view of what the fleet just did.
func reportServerCounters(url string) {
	resp, err := http.Get(url)
	if err != nil {
		log.Printf("fetching stats: %v", err)
		return
	}
	defer resp.Body.Close()
	var stats struct {
		Metrics struct {
			Counters map[string]uint64 `json:"counters"`
			Gauges   map[string]int64  `json:"gauges"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Printf("decoding stats: %v", err)
		return
	}
	c := stats.Metrics.Counters
	fmt.Printf("server     admitted %d  rejected %d  sf-leaders %d  sf-shared %d  streamed %d  cache-hits %d\n",
		c["server.admission.admitted"], c["server.admission.rejected"],
		c["server.singleflight.leaders"], c["server.singleflight.shared"],
		c["server.stream.responses"], c["synserve.cache.hits"])
}
