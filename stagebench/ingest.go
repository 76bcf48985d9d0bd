package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/fingerprint"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/reactive"
	"github.com/synscan/synscan/internal/telescope"
	"github.com/synscan/synscan/internal/workload"
)

// chunkFrames is how many frames the harness moves through one per-packet
// layer before handing them to the next: a span then costs two clock reads
// per chunk and layer, not per packet.
const chunkFrames = 4096

// pipeline is the program's ingest state for one replay of the capture:
// telescope (behind a responder on the reactive path), detector, enricher
// and an open segment store. Every slice gets a new one.
type pipeline struct {
	tel *telescope.Telescope
	rt  *reactive.Telescope // nil on the one-way path
	enr *enrich.Enricher
	det core.Ingester
	sw  *archive.SegmentWriter
	dir string

	tr     *tracer
	parent int          // span the detector is running in, for the emit callback
	scans  []*core.Scan // campaigns emitted, digested after the clock stops
	err    error        // first archive error inside the emit callback
}

// emit is the detector's callback: origin lookup, then the archive append.
func (p *pipeline) emit(sc *core.Scan) {
	id := p.tr.start("enrich.origin", p.parent)
	o := p.enr.Origin(sc.Src)
	p.tr.end(id)
	id = p.tr.start("archive.add", p.parent)
	err := p.sw.AddWithOrigin(sc, o)
	p.tr.end(id)
	if err != nil && p.err == nil {
		p.err = err
	}
	p.scans = append(p.scans, sc)
}

func (p *pipeline) close() {
	if p == nil {
		return
	}
	p.sw.Close()
	os.RemoveAll(p.dir)
}

// ingestLoad is the ingest_oneway and ingest_reactive workloads: one
// rendered capture replayed through decode, telescope, detector, enrichment
// and archive write, on fresh pipeline state each slice.
type ingestLoad struct {
	reactive bool
	e        *env

	scenario *workload.Scenario
	cap      *capture
	pipe     *pipeline // state for the next slice
	npipes   int

	decoded []packet.Probe // one chunk of decode output
	batch   []packet.Probe // the chunk's accepted probes

	refDigest [sha256.Size]byte
	refScans  int
}

func (w *ingestLoad) items() int { return w.cap.frames() }

// setup is the part of a run a user pays before the first packet is
// processed: render the capture with internal/workload and internal/tools,
// build the pipeline, open the segment directory.
func (w *ingestLoad) setup() (float64, map[string]float64, error) {
	w.pipe.close()
	w.pipe = nil
	t0 := time.Now()
	s, err := newScenario(w.e.seed, w.e.sizes.scale)
	if err != nil {
		return 0, nil, err
	}
	w.scenario = s
	w.cap = renderCapture(s, w.e.seed, w.reactive, w.cap)
	if w.decoded == nil {
		w.decoded = make([]packet.Probe, chunkFrames)
		w.batch = make([]packet.Probe, 0, chunkFrames)
	}
	w.pipe, err = w.newPipeline()
	return time.Since(t0).Seconds(), nil, err
}

func (w *ingestLoad) newPipeline() (*pipeline, error) {
	tel, err := telescope.New(telescope.ScaledConfig(w.e.seed, captureTelescope))
	if err != nil {
		return nil, err
	}
	p := &pipeline{tel: tel, enr: enrich.New(w.scenario.Registry)}
	if w.reactive {
		p.rt = reactive.New(tel, reactive.DefaultPolicy(w.e.seed))
	}
	p.det = core.NewDetector(core.ScaledConfig(tel.Size()), p.emit)
	w.npipes++
	p.dir = filepath.Join(w.e.workdir, fmt.Sprintf("ingest-%d", w.npipes))
	p.sw, err = archive.OpenSegmentDir(p.dir, archive.SegmentConfig{TelescopeSize: tel.Size(), Origins: true})
	return p, err
}

// observe runs one probe through the telescope ingress of the workload.
func (p *pipeline) observe(pr *packet.Probe) bool {
	if p.rt != nil {
		return p.rt.Observe(pr).Reason == telescope.Accepted
	}
	return p.tel.Observe(pr) == telescope.Accepted
}

// prepare computes the reference campaign digest on a path that shares no
// harness code with the slice: the one-shot frame decoder, one probe at a
// time through a detector of its own.
func (w *ingestLoad) prepare() error {
	ref, err := w.newPipeline()
	if err != nil {
		return err
	}
	defer ref.close()
	h := sha256.New()
	n := 0
	det := core.NewDetector(core.ScaledConfig(ref.tel.Size()), func(sc *core.Scan) {
		digestScan(h, sc)
		n++
	})
	var p packet.Probe
	for i := 0; i < w.cap.frames(); i++ {
		if p.UnmarshalFrame(w.cap.frame(i)) != nil {
			continue
		}
		p.Time = w.cap.times[i]
		if ref.observe(&p) {
			det.Ingest(&p)
		}
	}
	det.FlushAll()
	h.Sum(w.refDigest[:0])
	w.refScans = n
	if n == 0 {
		return fmt.Errorf("reference run produced no campaigns from %d frames", w.cap.frames())
	}
	return nil
}

// digestScan folds every result field of a campaign into h.
func digestScan(h hash.Hash, sc *core.Scan) {
	var b [96]byte
	be := binary.BigEndian
	be.PutUint32(b[0:], sc.Src)
	be.PutUint64(b[4:], uint64(sc.Start))
	be.PutUint64(b[12:], uint64(sc.End))
	be.PutUint64(b[20:], sc.Packets)
	be.PutUint32(b[28:], uint32(sc.DistinctDsts))
	b[32] = byte(sc.Tool)
	b[33] = byte(sc.ISN)
	if sc.Qualified {
		b[34] = 1
	}
	if sc.TwoPhase {
		b[35] = 1
	}
	be.PutUint64(b[36:], math.Float64bits(sc.RatePPS))
	be.PutUint64(b[44:], math.Float64bits(sc.Coverage))
	be.PutUint32(b[52:], uint32(sc.LinkedDsts))
	be.PutUint64(b[56:], sc.ScoutPackets)
	be.PutUint64(b[64:], sc.HandshakePackets)
	be.PutUint64(b[72:], sc.PayloadBytes)
	be.PutUint32(b[80:], uint32(len(sc.Ports)))
	be.PutUint32(b[84:], uint32(len(sc.Payload)))
	h.Write(b[:88])
	for _, port := range sc.Ports {
		be.PutUint16(b[0:], port)
		h.Write(b[:2])
	}
	h.Write(sc.Payload)
}

// slice replays the whole capture once. Everything between the first Decode
// and the return of Seal is the program's; what the harness adds is the
// chunk loop, the timestamp assignment and the copy into the batch.
func (w *ingestLoad) slice(tr *tracer) (sliceResult, error) {
	p := w.pipe
	p.tr = tr
	c := w.cap
	var dec packet.Decoder
	var res sliceResult
	undecodable, accepted, peak := 0, 0, 0
	observe := "telescope.observe"
	if w.reactive {
		observe = "reactive.observe"
	}

	clock := startClock()
	for lo := 0; lo < c.frames(); lo += chunkFrames {
		hi := min(lo+chunkFrames, c.frames())

		id := tr.start("packet.decode", -1)
		k := 0
		for i := lo; i < hi; i++ {
			pr := &w.decoded[k]
			if dec.Decode(c.frame(i), pr) != nil {
				undecodable++
				continue
			}
			pr.Time = c.times[i]
			k++
		}
		tr.end(id)

		id = tr.start(observe, -1)
		batch := w.batch[:0]
		for i := 0; i < k; i++ {
			if p.observe(&w.decoded[i]) {
				batch = append(batch, w.decoded[i])
			}
		}
		tr.end(id)
		accepted += len(batch)

		p.parent = tr.start("core.ingest", -1)
		p.det.IngestBatch(batch)
		tr.end(p.parent)
		peak = max(peak, p.det.ActiveFlows())
	}
	p.parent = tr.start("core.flush", -1)
	p.det.FlushAll()
	tr.end(p.parent)

	id := tr.start("archive.seal", -1)
	err := p.sw.Seal()
	tr.end(id)
	clock.stop(&res)

	// The clock has stopped: check the slice's outputs.
	if err == nil {
		err = p.err
	}
	if err != nil {
		return res, err
	}
	var sealedScans uint64
	for _, m := range p.sw.SealedSegments() {
		res.outBytes += m.Bytes
		sealedScans += m.Scans
	}
	h := sha256.New()
	for _, sc := range p.scans {
		digestScan(h, sc)
	}
	var got [sha256.Size]byte
	h.Sum(got[:0])
	st := p.tel.Stats()
	res.ok = got == w.refDigest &&
		uint64(c.frames()) == uint64(undecodable)+st.Total() &&
		st.Accepted == uint64(accepted) &&
		sealedScans == uint64(len(p.scans))
	res.counts = map[string]float64{
		"frames":      float64(c.frames()),
		"undecodable": float64(undecodable),
		"accepted":    float64(accepted),
		"scans":       float64(len(p.scans)),
		"flows_peak":  float64(peak),
	}
	if p.rt != nil {
		rs := p.rt.Stats()
		res.counts["responded"] = float64(rs.Responded)
		res.counts["phase2"] = float64(rs.Phase2)
	}

	p.close()
	w.pipe, err = w.newPipeline()
	return res, err
}

// shadow costs fingerprint.Votes.AddBatch, which the detector calls inside
// IngestBatch where the harness cannot put a span: the same accepted probes,
// split into the same same-source runs, tallied into a scratch Votes.
func (w *ingestLoad) shadow(tr *tracer) (map[string]float64, error) {
	p, err := w.newPipeline()
	if err != nil {
		return nil, err
	}
	defer p.close()
	c := w.cap
	var dec packet.Decoder
	var total time.Duration
	for lo := 0; lo < c.frames(); lo += chunkFrames {
		hi := min(lo+chunkFrames, c.frames())
		batch := w.batch[:0]
		for i := lo; i < hi; i++ {
			pr := &w.decoded[0]
			if dec.Decode(c.frame(i), pr) != nil {
				continue
			}
			pr.Time = c.times[i]
			// Phase-two segments go through Votes.AddPhase2 in the detector,
			// one at a time; AddBatch sees scout probes only.
			if p.observe(pr) && pr.IsSYN() {
				batch = append(batch, *pr)
			}
		}
		start := tr.now()
		for ps := batch; len(ps) > 0; {
			n := 1
			for n < len(ps) && ps[n].Src == ps[0].Src {
				n++
			}
			var v fingerprint.Votes
			v.AddBatch(ps[:n])
			ps = ps[n:]
		}
		end := tr.now()
		tr.shadow("fingerprint.vote", start, end)
		total += time.Duration(end - start)
	}
	return map[string]float64{"fingerprint.vote_ns": float64(total)}, nil
}

func (w *ingestLoad) inputs() map[string]float64 {
	return map[string]float64{
		"frames":        float64(w.cap.frames()),
		"capture_bytes": float64(len(w.cap.data)),
		"junk_frames":   float64(w.cap.junk),
		"campaigns":     float64(w.refScans),
	}
}

// layers turns the traced slices into the ingest per-layer metrics. Times
// are per frame offered, so the *_ns_per_pkt figures of one workload add up
// to its slice time per frame.
func (w *ingestLoad) layers(best ledger, last sliceResult, shadow map[string]float64) map[string]float64 {
	n := last.counts
	frames, scans := n["frames"], n["scans"]
	self := func(name string) float64 { return float64(best.self[name]) }
	perFrame := func(name string) float64 { return self(name) / frames }
	vote := shadow["fingerprint.vote_ns"] / frames
	m := map[string]float64{
		"packet.decode_ns_per_pkt":    perFrame("packet.decode"),
		"packet.undecodable_share":    n["undecodable"] / frames,
		"core.absorb_ns_per_pkt":      perFrame("core.ingest") - vote,
		"core.flush_ms_per_slice":     self("core.flush") / 1e6,
		"core.scans_per_kpkt":         1000 * scans / frames,
		"core.active_flows_peak":      n["flows_peak"],
		"fingerprint.vote_ns_per_pkt": vote,
		"enrich.origin_ns_per_scan":   self("enrich.origin") / scans,
		"archive.add_ns_per_scan":     self("archive.add") / scans,
		"archive.seal_ms_per_slice":   self("archive.seal") / 1e6,
		"archive.bytes_per_scan":      float64(last.outBytes) / scans,
	}
	if w.reactive {
		m["reactive.observe_ns_per_pkt"] = perFrame("reactive.observe")
		m["reactive.respond_share"] = n["responded"] / frames
		m["reactive.phase2_share"] = n["phase2"] / frames
	} else {
		m["telescope.observe_ns_per_pkt"] = perFrame("telescope.observe")
		m["telescope.accept_share"] = n["accepted"] / frames
	}
	return m
}

func (w *ingestLoad) close() { w.pipe.close() }
