package core

import (
	"slices"

	"github.com/synscan/synscan/internal/packet"
)

// NaiveDetector is the ablation baseline for the streaming Detector: the
// same campaign semantics, but expiry is implemented as a periodic full
// sweep over the flow table instead of the intrusive LRU list. With many
// live flows the sweep cost dominates; BenchmarkAblationExpiry quantifies
// the difference. Results are identical to Detector's given the same input
// (both close a flow the first time the stream's high-water mark passes the
// flow's last activity plus the expiry window, and the sweep runs on every
// packet). It keeps its flows in a Go map and passes flow.absorb no pools, so
// as an oracle it shares neither the source table nor the table and bitmap
// pools with the Detector it checks.
type NaiveDetector struct {
	cfg   Config
	flows map[uint32]*flow
	emit  func(*Scan)
	now   int64

	opened, closed, qualified uint64
}

// NewNaiveDetector mirrors NewDetector for the sweep-based variant.
func NewNaiveDetector(cfg Config, emit func(*Scan)) *NaiveDetector {
	return &NaiveDetector{cfg: cfg.withDefaults(), flows: make(map[uint32]*flow), emit: emit}
}

// Ingest processes one probe, sweeping the whole table for expired flows.
func (d *NaiveDetector) Ingest(p *packet.Probe) {
	if p.Time > d.now {
		d.now = p.Time
	}
	cutoff := d.now - d.cfg.Expiry
	// Full sweep: the O(flows) cost the LRU design avoids. Expired flows
	// are closed in deterministic (source) order.
	var expired []uint32
	for src, f := range d.flows {
		if f.end < cutoff {
			expired = append(expired, src)
		}
	}
	slices.Sort(expired)
	for _, src := range expired {
		f := d.flows[src]
		delete(d.flows, src)
		d.close(f)
	}

	f := d.flows[p.Src]
	if f == nil {
		f = &flow{src: p.Src, start: p.Time}
		d.flows[p.Src] = f
		d.opened++
	}
	// Same reordering clamp as Detector.Ingest: end never moves backwards.
	if p.Time > f.end {
		f.end = p.Time
	}
	f.absorb(p, nil, nil)
}

// IngestBatch is a loop over Ingest, as in Detector.
func (d *NaiveDetector) IngestBatch(ps []packet.Probe) {
	for i := range ps {
		d.Ingest(&ps[i])
	}
}

// FlushAll closes all remaining flows in source order.
func (d *NaiveDetector) FlushAll() {
	var srcs []uint32
	for src := range d.flows {
		srcs = append(srcs, src)
	}
	slices.Sort(srcs)
	for _, src := range srcs {
		f := d.flows[src]
		delete(d.flows, src)
		d.close(f)
	}
}

// close shares Detector.close's qualification math via finalize.
func (d *NaiveDetector) close(f *flow) {
	d.closed++
	s := finalize(&d.cfg, f)
	if s.Qualified {
		d.qualified++
	}
	if d.emit != nil {
		d.emit(s)
	}
}

// ActiveFlows returns the number of currently open flows.
func (d *NaiveDetector) ActiveFlows() int { return len(d.flows) }

// Counts returns (flows opened, flows closed, campaigns qualified).
func (d *NaiveDetector) Counts() (opened, closed, qualified uint64) {
	return d.opened, d.closed, d.qualified
}
