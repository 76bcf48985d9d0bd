package synscan

// The root package's benchmarks span packages; each hot path's own benchmark
// lives next to its package. BenchmarkExperiment has one sub-benchmark per
// row of the experiment table, on a decade collected once per process (so it
// measures the analysis itself); BenchmarkShardedIngest times a capture
// replay into the sequential and the sharded detector.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/analysis"
	"github.com/synscan/synscan/internal/capture"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
)

const (
	benchSeed  = 1
	benchScale = 0.0004
	benchTel   = 2048
)

var (
	benchOnce   sync.Once
	benchDecade []*YearData
)

func benchData(b *testing.B) []*YearData {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		benchDecade, err = SimulateDecade(benchSeed, benchScale, benchTel)
		if err != nil {
			panic(err)
		}
	})
	return benchDecade
}

// BenchmarkExperiment runs each row of the experiment table on its own
// (-bench 'Experiment/fig5'): the analysis alone for the rows that read the
// collected decade, a fresh scenario for the ones that simulate their own.
func BenchmarkExperiment(b *testing.B) {
	in := analysis.Input{Seed: benchSeed, Scale: benchScale, TelescopeSize: benchTel, Years: benchData(b)}
	for _, e := range analysis.Experiments {
		b.Run(e.Key, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev, err := analysis.Evaluate(in, []string{e.Key})
				if err != nil {
					b.Fatal(err)
				}
				if !e.Evaluated(ev) {
					b.Fatal("no result")
				}
			}
		})
	}
}

// makeProbeStream builds a deterministic multi-source Masscan stream with
// expiry-inducing gaps, for the facade tests and BenchmarkShardedIngest.
func makeProbeStream(n, sources int) []packet.Probe {
	r := rng.New(3)
	probers := make([]tools.Prober, sources)
	for i := range probers {
		probers[i] = tools.NewMasscan(uint32(i+1), r.DeriveN("s", uint64(i)))
	}
	stream := make([]packet.Probe, n)
	tm := int64(0)
	for i := 0; i < n; i++ {
		p := probers[i%sources].Probe(uint32(i), 443)
		tm += int64(r.Intn(10)) * int64(time.Millisecond)
		if i%50000 == 0 && i > 0 {
			tm += 2 * int64(time.Hour)
		}
		p.Time = tm
		stream[i] = p
	}
	return stream
}

// BenchmarkShardedIngest replays one in-memory pcap through capture.Replay,
// the path `synalyze -workers N` runs: the bench goroutine reads, decodes and
// filters every frame and routes the probe; detection runs on the shards, so
// there is producer work for sharding to overlap (a pre-built []Probe leaves
// none). On this stream the flow tables stay in cache and detection is cheap,
// so routing costs more than the shards give back: on the 2-core runner
// sequential reads 41–43 ms, workers=2 55–63 ms and workers=4
// (oversubscribed) 51–54 ms; on one core (GOMAXPROCS=1) sequential 42–56 ms
// against 62–66 ms at workers=2. Sharding pays only where detection is
// memory-bound: replaying a 20.6 M-record capture with 366 k flows, synalyze
// goes from 6.5 s at one worker to 5.1 s at two and 4.0 s at four (DESIGN.md
// "Sharded detection pipeline"). It is the micro-view of ingest_oneway's
// replay, decode to core.absorb_ns_per_pkt, at each worker count; its
// …/metrics variants show what a live registry costs against none.
func BenchmarkShardedIngest(b *testing.B) {
	stream := makeProbeStream(200000, 16384)
	var file bytes.Buffer
	w, err := capture.NewWriter(&file, capture.Pcap, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := range stream {
		if err := w.Write(&stream[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{TelescopeSize: 65536}
	run := func(b *testing.B, mk func() core.Ingester) {
		b.ReportAllocs()
		b.SetBytes(int64(len(stream)))
		for i := 0; i < b.N; i++ {
			rd, err := capture.Open(bytes.NewReader(file.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			d := mk()
			if st, err := capture.Replay(rd, d, capture.ReplayConfig{}); err != nil || st.Accepted != uint64(len(stream)) {
				b.Fatalf("replayed %d of %d probes: %v", st.Accepted, len(stream), err)
			}
			d.FlushAll()
		}
	}
	b.Run("sequential", func(b *testing.B) {
		run(b, func() core.Ingester { return core.NewDetector(cfg, func(*Scan) {}) })
	})
	for _, w := range []int{2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			run(b, func() core.Ingester {
				return core.NewDetector(cfg, func(*Scan) {}, core.WithWorkers(w))
			})
		})
	}
	// Metrics variants bound the instrumentation cost: the nil-registry path
	// (the default everywhere) must stay within noise of the uninstrumented
	// sequential/workers numbers above, and the enabled path shows what a
	// live -metrics run pays.
	b.Run("workers=4/metrics", func(b *testing.B) {
		run(b, func() core.Ingester {
			return core.NewDetector(cfg, func(*Scan) {},
				core.WithWorkers(4), core.WithMetrics(obs.NewRegistry()))
		})
	})
	b.Run("sequential/metrics", func(b *testing.B) {
		run(b, func() core.Ingester {
			return core.NewDetector(cfg, func(*Scan) {}, core.WithMetrics(obs.NewRegistry()))
		})
	})
}
