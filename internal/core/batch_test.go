package core

import (
	"reflect"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/faultinject"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
)

// makeRunStream builds a same-source-run-heavy stream: each source sends a
// burst of consecutive probes, every eleventh a phase-two handshake segment
// with a payload, and occasional multi-hour gaps expire everything resident
// in the middle of the stream.
func makeRunStream(runs, runLen int, seed uint64) []packet.Probe {
	r := rng.New(seed)
	var stream []packet.Probe
	tm := int64(0)
	for run := 0; run < runs; run++ {
		src := uint32(1 + run%97)
		pr := tools.NewProber(tools.Tools[run%len(tools.Tools)], src,
			r.DeriveN("run", uint64(run)))
		if run > 0 && run%31 == 0 {
			tm += 3 * int64(time.Hour) // expire everything resident
		}
		for i := 0; i < runLen; i++ {
			p := pr.Probe(uint32(0xc0a80000+run*runLen+i), uint16(20+i%5*1000))
			tm += int64(r.Intn(4)) * int64(time.Millisecond)
			p.Time = tm
			if i%11 == 10 {
				// A phase-two handshake segment in the middle of the run.
				p.Flags = packet.FlagPSH | packet.FlagACK
				p.Payload = []byte("SSH-2.0-probe")
			}
			stream = append(stream, p)
		}
	}
	return stream
}

// mutateStream runs a stream through a seeded faultinject.Stream so the
// differential corpus includes drops, duplicates, reordering and clock skew.
func mutateStream(stream []packet.Probe, cfg faultinject.StreamConfig) []packet.Probe {
	fs := faultinject.NewStream(cfg)
	var out []packet.Probe
	emit := func(p *packet.Probe) { out = append(out, *p) }
	for i := range stream {
		fs.Apply(&stream[i], emit)
	}
	fs.Flush(emit)
	return out
}

// batchCorpora is the stream set the differential tests (sequential vs naive,
// sharded per-probe vs sharded batch vs sequential) run over.
func batchCorpora() map[string][]packet.Probe {
	mixed := makeMixedStream(12000, 400, 7)
	return map[string][]packet.Probe{
		"mixed":     mixed,
		"runs":      makeRunStream(300, 40, 3),
		"reordered": mutateStream(mixed, faultinject.StreamConfig{Seed: 5, ReorderRate: 0.1, SkewRate: 0.1, MaxSkew: int64(time.Second)}),
		"damaged":   mutateStream(makeRunStream(200, 30, 9), faultinject.StreamConfig{Seed: 8, DropRate: 0.05, DupRate: 0.05, ReorderRate: 0.05}),
	}
}

// TestShardedBatchDifferential drives the sharded detector through
// IngestBatch (the zero-copy router entry) and holds it to the per-probe
// Ingest entry on every corpus — batching must not change routing, watermark
// timing or results — and, as emitted, to the canonical sort of the
// sequential detector's output on the corpora whose probes arrive far less
// than Expiry late (the regime the sharded equivalence is defined for; see
// the ShardedDetector contract): time-ordered, or reordered by a second with
// end clamps.
func TestShardedBatchDifferential(t *testing.T) {
	cfg := Config{TelescopeSize: testTelescopeSize}
	scfg := shardedConfig{
		Config:            cfg,
		Workers:           4,
		BatchSize:         64,
		WatermarkInterval: int64(10 * time.Minute),
	}
	inRegime := map[string]bool{"mixed": true, "runs": true, "reordered": true}
	for name, stream := range batchCorpora() {
		_, perProbe := runSharded(t, scfg, stream)

		var scans []*Scan
		sd := newShardedDetector(scfg, func(s *Scan) { scans = append(scans, s) }, nil)
		for off := 0; off < len(stream); off += 100 {
			end := off + 100
			if end > len(stream) {
				end = len(stream)
			}
			sd.IngestBatch(stream[off:end])
		}
		sd.FlushAll()
		sameScans(t, name+" batch vs per-probe", canonicalScans(perProbe), canonicalScans(scans))
		if !inRegime[name] {
			continue
		}
		seq, seqCounts := runSequential(t, cfg, stream)
		seqSorted := canonicalScans(seq)
		sameScans(t, name+" batch vs sequential", seqSorted, scans)
		sameScans(t, name+" per-probe vs sequential", seqSorted, perProbe)
		opened, closed, qualified := sd.Counts()
		if [3]uint64{opened, closed, qualified} != seqCounts {
			t.Fatalf("%s: counts (%d,%d,%d), sequential %v", name, opened, closed, qualified, seqCounts)
		}
	}
}

// TestShardedIngestCopiesPayload pins the deep-copy contract of the router:
// the caller may reuse its probe's Payload backing immediately after Ingest
// (the packet.Decoder hands every decode the same buffer), and the campaign's
// payload-derived fields must still come out right.
func TestShardedIngestCopiesPayload(t *testing.T) {
	const n = 400
	cfg := shardedConfig{
		Config:    Config{TelescopeSize: testTelescopeSize, MinDistinctDsts: 6},
		Workers:   2,
		BatchSize: 16,
	}
	want := []byte("GET / HT")

	// Reference run: stable payload buffers.
	var ref []*Scan
	rd := newShardedDetector(cfg, func(s *Scan) { ref = append(ref, s) }, nil)
	for i := 0; i < n; i++ {
		p := packet.Probe{Time: int64(i) * int64(time.Millisecond), Src: 1,
			Dst: uint32(0x0a000000 + i), DstPort: 80}
		if i%2 == 0 {
			p.Flags = packet.FlagSYN
		} else {
			p.Flags = packet.FlagPSH | packet.FlagACK
			p.Payload = []byte("GET / HTTP/1.1\r\n")
		}
		rd.Ingest(&p)
	}
	rd.FlushAll()

	// Decoder-shaped run: one probe, one payload buffer, scribbled after
	// every Ingest the way the next Decode would overwrite it.
	var got []*Scan
	sd := newShardedDetector(cfg, func(s *Scan) { got = append(got, s) }, nil)
	var p packet.Probe
	buf := make([]byte, 0, 64)
	for i := 0; i < n; i++ {
		p = packet.Probe{Time: int64(i) * int64(time.Millisecond), Src: 1,
			Dst: uint32(0x0a000000 + i), DstPort: 80, Payload: buf[:0]}
		if i%2 == 0 {
			p.Flags = packet.FlagSYN
		} else {
			p.Flags = packet.FlagPSH | packet.FlagACK
			p.Payload = append(p.Payload, "GET / HTTP/1.1\r\n"...)
		}
		sd.Ingest(&p)
		buf = p.Payload[:cap(p.Payload)]
		for j := range buf {
			buf[j] = 0xdb // poison: next decode would overwrite these bytes
		}
	}
	sd.FlushAll()

	if len(got) != len(ref) {
		t.Fatalf("%d scans, reference %d", len(got), len(ref))
	}
	for i := range ref {
		if !reflect.DeepEqual(*ref[i], *got[i]) {
			t.Fatalf("scan %d differs:\n ref: %+v\n got: %+v", i, *ref[i], *got[i])
		}
	}
	if len(got) != 1 || string(got[0].Payload) != string(want) {
		t.Fatalf("payload prefix corrupted: %q, want %q", got[0].Payload, want)
	}
}
