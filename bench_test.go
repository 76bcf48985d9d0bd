package synscan

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). BenchmarkExperiment
// has one sub-benchmark per row of the experiment table, on a decade
// collected once per process (so it measures the analysis itself);
// BenchmarkPipeline* measure the full generation+capture+detection
// pipeline, and BenchmarkAblation* quantify the design choices called out
// in DESIGN.md.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/analysis"
	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/capture"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/reactive"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/telescope"
	"github.com/synscan/synscan/internal/tools"
	"github.com/synscan/synscan/internal/workload"
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

// ---------------------------------------------------------------------------
// Full pipeline

func BenchmarkPipelineYear2020(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		yd, err := Simulate(Config{Year: 2020, Seed: benchSeed, Scale: benchScale, TelescopeSize: benchTel})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(yd.AcceptedPackets), "packets/op")
	}
}

func BenchmarkPipelineDecade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := SimulateDecade(benchSeed, benchScale, benchTel); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Experiments

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

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md design choices)

// makeAblationStream builds a deterministic multi-source stream with
// expiry-inducing gaps for the detector ablation.
func makeAblationStream(n, sources int) []packet.Probe {
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

func BenchmarkAblationExpiryLRU(b *testing.B) {
	stream := makeAblationStream(100000, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := core.NewDetector(core.Config{TelescopeSize: 65536}, func(*Scan) {})
		for j := range stream {
			d.Ingest(&stream[j])
		}
		d.FlushAll()
	}
}

func BenchmarkAblationExpirySweep(b *testing.B) {
	stream := makeAblationStream(100000, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := core.NewNaiveDetector(core.Config{TelescopeSize: 65536}, func(*Scan) {})
		for j := range stream {
			d.Ingest(&stream[j])
		}
		d.FlushAll()
	}
}

func BenchmarkAblationPermutation(b *testing.B) {
	b.Run("cyclic-group", func(b *testing.B) {
		p := rng.NewCyclicPerm(rng.New(1))
		for i := 0; i < b.N; i++ {
			_, _ = p.Next()
		}
	})
	b.Run("feistel", func(b *testing.B) {
		p := rng.NewFeistelPerm(1<<32, rng.New(1))
		for i := 0; i < b.N; i++ {
			_ = p.Apply(uint64(i) & 0xffffffff)
		}
	})
}

// ---------------------------------------------------------------------------
// Hot paths at the facade level

func BenchmarkAnalyzerIngest(b *testing.B) {
	stream := makeAblationStream(65536, 1024)
	a := NewAnalyzer(inetmodel.IPv4SpaceSize / 65536)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Ingest(&stream[i%len(stream)])
	}
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
// "Sharded detection pipeline").
func BenchmarkShardedIngest(b *testing.B) {
	stream := makeAblationStream(200000, 16384)
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

// ---------------------------------------------------------------------------
// Zero-alloc hot paths
//
// These benchmarks cover the allocation-gated paths (see alloc_gate_test.go
// and the per-package internal/alloctest budgets): steady-state frame decode,
// detector absorb and pooled archive block reads must not allocate;
// run with -benchmem to see the per-op numbers.

// BenchmarkDecodeFrame: one reusable packet.Decoder over a wire-format
// corpus, the synalyze/syningest replay hot path.
func BenchmarkDecodeFrame(b *testing.B) {
	stream := makeAblationStream(4096, 512)
	frames := make([][]byte, len(stream))
	var bytes int64
	for i := range stream {
		if i%7 == 0 {
			stream[i].Flags = packet.FlagPSH | packet.FlagACK
			stream[i].Payload = []byte("GET / HTTP/1.1\r\n")
		}
		frames[i] = stream[i].AppendFrame(nil)
		bytes += int64(len(frames[i]))
	}
	var dec packet.Decoder
	var p packet.Probe
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.Decode(frames[i%len(frames)], &p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorIngest: the detector's steady-state absorb — warm flows,
// resident destination/port sets — one Detector.Ingest per probe. Each op is
// one pass over the whole stream, and every pass moves the stream's clock on
// by its span: replayed with the timestamps it had, every probe from the
// second pass on would be late and the benchmark would time the LRU's
// walk-back for reordered input. With BenchmarkDetectorChurn it is the
// micro-view of the stage ledger's core.absorb_ns_per_pkt: this one never
// closes a flow (a pass spans two seconds, expiry is an hour), that one does
// little else.
func BenchmarkDetectorIngest(b *testing.B) {
	const sources, perSource = 32, 64
	stream := make([]packet.Probe, 0, sources*perSource)
	for s := 0; s < sources; s++ {
		for i := 0; i < perSource; i++ {
			stream = append(stream, packet.Probe{
				Time:    int64(s*perSource+i) * int64(time.Millisecond),
				Src:     uint32(s + 1),
				Dst:     uint32(0x0a000000 + i%48),
				DstPort: uint16(20 + i%8),
				Seq:     uint32(i) * 977,
				Flags:   packet.FlagSYN,
			})
		}
	}
	d := core.NewDetector(core.Config{TelescopeSize: 65536}, func(*Scan) {})
	b.ReportAllocs()
	b.SetBytes(int64(len(stream)))
	b.ResetTimer()
	span := int64(len(stream)) * int64(time.Millisecond)
	for i := 0; i < b.N; i++ {
		for j := range stream {
			d.Ingest(&stream[j])
			stream[j].Time += span
		}
	}
}

// BenchmarkDetectorChurn: the other half of core.absorb_ns_per_pkt — flows
// opening and closing. Each op is one flow's whole life: opened from the free
// list, fifty probes over twelve destinations and three ports, closed by the
// next flow's first probe (the clock jumps past the expiry window between
// flows); every 64th flow sweeps fifty ports instead, so its port set spills
// to a pooled bitmap. The ingest workloads close a flow every ≈ 53 packets.
func BenchmarkDetectorChurn(b *testing.B) {
	d := core.NewDetector(core.Config{TelescopeSize: 65536}, func(*Scan) {})
	var tm int64
	p := &packet.Probe{Flags: packet.FlagSYN}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		p.Src = uint32(n + 1)
		sweep := n%64 == 63
		for i := 0; i < 50; i++ {
			tm += int64(time.Millisecond)
			p.Time, p.Dst, p.Seq = tm, uint32(0x0a000000+i%12), uint32(i)*977
			if p.DstPort = uint16(20 + i%3); sweep {
				p.DstPort = uint16(i * 1311)
			}
			d.Ingest(p)
		}
		tm += 2 * core.DefaultExpiry
	}
}

// benchScans closes a deterministic stream through the detector to get
// realistic scans for the storage benchmarks.
func benchScans(n, sources int) []*core.Scan {
	var scans []*core.Scan
	d := core.NewDetector(core.Config{TelescopeSize: 65536},
		func(s *core.Scan) { scans = append(scans, s) })
	stream := makeAblationStream(n, sources)
	for i := range stream {
		d.Ingest(&stream[i])
	}
	d.FlushAll()
	return scans
}

// BenchmarkArchiveRawBlock: the pooled read path — ReadAt, checksum,
// DEFLATE — without per-record decode on top. This is the path the
// "archive-block-read" budget gates; a warmed scratch pool holds it near
// zero allocations.
func BenchmarkArchiveRawBlock(b *testing.B) {
	scans := benchScans(50000, 4096)
	path := b.TempDir() + "/bench.syn"
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	reg := obs.NewRegistry()
	aw, err := archive.NewWriter(f, archive.WriterConfig{TelescopeSize: 65536, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range scans {
		// benchScans numbers its sources 1, 2, 3…; real ones are spread over the
		// address space, which is what makes the src strip incompressible.
		s.Src *= 0x9E3779B1
		if err := aw.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		b.Fatal(err)
	}
	// The gate is over both kinds of strip stream a block can hold.
	if snap := reg.Snapshot(); snap.Counter("archive.strips.stored") == 0 || snap.Counter("archive.strips.deflated") == 0 {
		b.Fatalf("%d strips stored, %d deflated: want blocks that hold both",
			snap.Counter("archive.strips.stored"), snap.Counter("archive.strips.deflated"))
	}
	st, err := f.Stat()
	if err != nil {
		b.Fatal(err)
	}
	r, err := archive.NewReader(f, st.Size())
	if err != nil {
		b.Fatal(err)
	}
	blocks := r.NumBlocks()
	var raw int64
	visit := func(data []byte) error { raw += int64(len(data)); return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.RawBlock(i%blocks, visit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchiveWrite is the micro-view of the stage ledger's
// archive.build_scans_per_s and archive.compact_s: one op appends every scan
// to a fresh segment store that seals ten segments, then compacts until the
// compactor finds nothing more to merge — the write path of the query
// workloads' set-up, on detector output with short port lists. scans/s counts
// the scans of one op against the whole op, compaction included.
func BenchmarkArchiveWrite(b *testing.B) {
	scans := benchScans(400000, 65536)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := archive.OpenSegmentDir(b.TempDir(), archive.SegmentConfig{
			TelescopeSize: 65536, MaxSegmentScans: uint64(len(scans)/10 + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range scans {
			if err := sw.Add(s); err != nil {
				b.Fatal(err)
			}
		}
		if err := sw.Seal(); err != nil {
			b.Fatal(err)
		}
		comp := archive.NewCompactor(sw, archive.CompactorConfig{})
		for {
			merged, err := comp.CompactOnce()
			if err != nil {
				b.Fatal(err)
			}
			if merged == 0 {
				break
			}
		}
		if segs := sw.SealedSegments(); len(segs) != 1 || segs[0].Scans != uint64(len(scans)) {
			b.Fatalf("store after compaction: %+v", segs)
		}
		if err := sw.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(scans))*float64(b.N)/b.Elapsed().Seconds(), "scans/s")
}

// BenchmarkSegmentStoreQuery: a full catalog query — every sealed segment,
// zone-map pruning, block decode — against a live segment store.
func BenchmarkSegmentStoreQuery(b *testing.B) {
	scans := benchScans(50000, 4096)
	sw, err := archive.OpenSegmentDir(b.TempDir(), archive.SegmentConfig{
		TelescopeSize: 65536, MaxSegmentScans: 2000,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range scans {
		if err := sw.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	if err := sw.Seal(); err != nil {
		b.Fatal(err)
	}
	cat, err := archive.OpenCatalog(sw.Dir(), archive.CatalogConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer cat.Close()
	defer sw.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := cat.View()
		n := 0
		for j := 0; j < v.Len(); j++ {
			err := v.Reader(j).Query(context.Background(), archive.All, func(*core.Scan, *enrich.Origin) { n++ })
			if err != nil {
				b.Fatal(err)
			}
		}
		v.Release()
		if n != len(scans) {
			b.Fatalf("query returned %d scans, want %d", n, len(scans))
		}
	}
}

// BenchmarkReactiveObserve is the micro-view of the stage ledger's
// reactive.observe_ns_per_pkt: the reactive telescope's ingress — membership,
// rate limit, invitation table — under SYNs with a handshake ACK behind every
// fourth, in the two states the table can be in. "fill" keeps fewer tuples
// in play than the table holds, so after the first round a SYN re-invites in
// place and nothing is evicted; "churn" plays sixteen tables' worth, so the
// table runs full and every SYN evicts the oldest invitation — where a busy
// telescope spends the whole capture, and what ingest_reactive times. The
// table is small enough to stay in cache; the ledger's figure includes the
// misses of the full-size one.
func BenchmarkReactiveObserve(b *testing.B) {
	tel, err := telescope.New(telescope.Config{
		Blocks: []telescope.PartialBlock{
			{Prefix: inetmodel.MustPrefix("10.1.0.0/20"), MonitoredFraction: 0.5},
		},
		Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	const maxState = 4096
	for _, bc := range []struct {
		name   string
		tuples int
	}{{"fill", maxState / 2}, {"churn", maxState * 16}} {
		b.Run(bc.name, func(b *testing.B) {
			pol := reactive.DefaultPolicy(7)
			pol.MaxState = maxState
			rt := reactive.New(tel, pol)
			probes := make([]packet.Probe, 0, bc.tuples*5/4)
			for i := 0; i < bc.tuples; i++ {
				// One SYN per millisecond: the default 1000/s answers each.
				p := packet.Probe{
					Time: int64(i) * int64(time.Millisecond), Src: uint32(0xC0A80000 + i),
					Dst: tel.At(i % tel.Size()), SrcPort: uint16(30000 + i%512),
					DstPort: uint16([]int{80, 443, 22, 8080}[i%4]),
					Seq:     uint32(i) * 131, Flags: packet.FlagSYN, TTL: 64,
				}
				probes = append(probes, p)
				if i%4 == 0 {
					p.Time += int64(time.Microsecond)
					p.Flags = packet.FlagACK
					probes = append(probes, p)
				}
			}
			span := int64(bc.tuples) * int64(time.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := probes[i%len(probes)]
				p.Time += int64(i/len(probes)) * span
				rt.Observe(&p)
			}
			b.StopTimer()
			// After a whole pass the table is in the state the name says.
			st := rt.Stats()
			if b.N > len(probes) && ((bc.tuples > maxState) != (st.Evicted+st.Expired > 0) || st.RateLimited > 0) {
				b.Fatalf("%s did not measure the state it names: %+v", bc.name, st)
			}
		})
	}
}

// BenchmarkContains is the micro-view of the stage ledger's
// telescope.observe_ns_per_pkt: membership in the paper's three /16 blocks
// for a shuffled mix of addresses — three quarters inside a block (monitored
// or not, as the block's fraction has it), a quarter outside all of them.
func BenchmarkContains(b *testing.B) {
	cfg := telescope.PaperConfig(benchSeed)
	tel, err := telescope.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(benchSeed)
	ips := make([]uint32, 4096)
	for i := range ips {
		ips[i] = r.Uint32()
		if i%4 != 0 {
			ips[i] = cfg.Blocks[i%len(cfg.Blocks)].Prefix.Base | ips[i]&0xffff
		}
	}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tel.Contains(ips[i%len(ips)]) {
			hits++
		}
	}
	if b.N >= len(ips) && hits == 0 {
		b.Fatal("no address was monitored")
	}
}

func BenchmarkWorkloadGeneration2024(b *testing.B) {
	reg := inetmodel.BuildRegistry(benchSeed)
	for i := 0; i < b.N; i++ {
		s, err := workload.NewScenario(workload.Config{
			Year: 2024, Seed: benchSeed, Scale: benchScale,
			TelescopeSize: benchTel, Registry: reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		n := uint64(0)
		s.Run(func(*packet.Probe) { n++ })
		b.SetBytes(int64(n))
	}
}

// Silence unused-import lint for analysis (used via the facade aliases).
var _ = analysis.Table1
