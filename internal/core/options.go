package core

import "github.com/synscan/synscan/internal/obs"

// Option configures NewDetector: construction is one call and the
// sharding/observability choices are orthogonal options.
type Option func(*options)

type options struct {
	workers int
	metrics *obs.Registry
}

// WithWorkers shards campaign detection across n goroutines (n <= 1 keeps
// the sequential detector). The detected campaign multiset is identical
// either way; see ShardedDetector for its emit order.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithMetrics attaches an observability registry: the detector reports
// flow lifecycle counters (detector.flows.*), reorder clamps
// (detector.end_clamp), spilled port sets (detector.ports.spilled), and —
// when sharded — queue depths, batch fill, watermark lag, release duration
// and the closed flows held for release.
// A nil registry disables metrics at a cost of one branch per probe.
func WithMetrics(reg *obs.Registry) Option {
	return func(o *options) { o.metrics = reg }
}

// NewDetector builds a campaign detector that calls emit for every closed
// flow. Zero Config fields are filled with the paper's defaults. By default
// the detector is the sequential single-goroutine implementation; pass
// WithWorkers(n > 1) for the sharded parallel variant and WithMetrics for
// pipeline observability. The returned Ingester is a *Detector or a
// *ShardedDetector accordingly.
func NewDetector(cfg Config, emit func(*Scan), opts ...Option) Ingester {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.workers > 1 {
		return newShardedDetector(shardedConfig{Config: cfg, Workers: o.workers}, emit, o.metrics)
	}
	return newSequentialDetector(cfg, emit, newDetMetrics(o.metrics))
}

// detMetrics is the detector's nil-safe metric set. A nil *detMetrics is
// the disabled mode: hot paths guard with one pointer check.
type detMetrics struct {
	packets   *obs.Counter
	opened    *obs.Counter
	reused    *obs.Counter // opened from the free list; opened − reused were allocated
	closed    *obs.Counter
	expired   *obs.Counter
	qualified *obs.Counter
	endClamp  *obs.Counter
	spilled   *obs.Counter // closed flows whose port set had spilled to a bitmap
	active    *obs.Gauge
}

func newDetMetrics(reg *obs.Registry) *detMetrics {
	if reg == nil {
		return nil
	}
	return &detMetrics{
		packets:   reg.Counter("detector.packets"),
		opened:    reg.Counter("detector.flows.opened"),
		reused:    reg.Counter("detector.flows.reused"),
		closed:    reg.Counter("detector.flows.closed"),
		expired:   reg.Counter("detector.flows.expired"),
		qualified: reg.Counter("detector.flows.qualified"),
		endClamp:  reg.Counter("detector.end_clamp"),
		spilled:   reg.Counter("detector.ports.spilled"),
		active:    reg.Gauge("detector.flows.active"),
	}
}
