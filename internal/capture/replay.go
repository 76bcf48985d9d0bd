package capture

import (
	"flag"
	"io"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/packet"
)

// ReplayConfig parameterizes Replay.
type ReplayConfig struct {
	// Reactive admits the phase-two TCP segments (handshake ACKs, payload
	// pushes) a reactive telescope recorded, which the detector links into
	// two-phase campaigns. A passive replay admits pure SYNs only.
	Reactive bool
	// Metrics receives the ingress counters and the replay.read_ns span,
	// named as the telescope names its own so one snapshot schema covers the
	// simulator and the replay path. Nil disables them.
	Metrics *obs.Registry
	// Accepted, when set, sees every admitted probe before the detector
	// does. The probe is only valid during the call.
	Accepted func(*packet.Probe)
}

// ReplayStats accounts for every record Replay read:
// Records == Accepted + NotSYN + Unparsed.
type ReplayStats struct {
	Records  uint64 // read from the capture
	Accepted uint64 // handed to the detector
	NotSYN   uint64 // parsed, but dropped by the ingress filter
	Unparsed uint64 // frames that do not decode as a probe
	// Phase2 is the part of Accepted that Reactive admitted (the rest are
	// pure SYNs); Truncated the records cut to the snap length.
	Phase2, Truncated uint64
}

// Replay is the replay loop: it reads rd to its end, applies the ingress
// filter — a pure SYN, or with cfg.Reactive any TCP segment that is not a
// SYN-ACK (backscatter stays dropped either way) — and hands what passes to
// det. Closing the detector's remaining flows (FlushAll) is the caller's,
// which may want to time or skip it. On a read error the stats cover what was
// ingested before it.
func Replay(rd *Reader, det core.Ingester, cfg ReplayConfig) (ReplayStats, error) {
	mAccepted := cfg.Metrics.Counter("telescope.packets.accepted")
	mNotSYN := cfg.Metrics.Counter("telescope.drop.not_syn")
	mUnparsed := cfg.Metrics.Counter("telescope.drop.unparsed")
	mTruncated := cfg.Metrics.Counter("pcap.records.truncated")
	defer obs.StartSpan(cfg.Metrics.Histogram("replay.read_ns")).End()

	var st ReplayStats
	var p packet.Probe
	for {
		decoded, err := rd.Next(&p)
		if n := rd.Truncated(); n != st.Truncated {
			mTruncated.Add(n - st.Truncated)
			st.Truncated = n
		}
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return st, err
		}
		st.Records++
		switch {
		case !decoded:
			st.Unparsed++
			mUnparsed.Inc()
			continue
		case p.IsSYN():
		case cfg.Reactive && p.IsTCP() && !p.IsSYNACK():
			st.Phase2++
		default:
			st.NotSYN++
			mNotSYN.Inc()
			continue
		}
		st.Accepted++
		mAccepted.Inc()
		if cfg.Accepted != nil {
			cfg.Accepted(&p)
		}
		det.Ingest(&p)
	}
}

// TelescopeSize resolves the monitored-address count a replay of rd scales
// its thresholds and extrapolations by: the capture header's, unless it
// records none or the operator set the named int flag of fs explicitly —
// whatever the value, the flag's own default included.
func TelescopeSize(rd *Reader, fs *flag.FlagSet, name string) int {
	given := false
	fs.Visit(func(f *flag.Flag) { given = given || f.Name == name })
	if size := rd.TelescopeSize(); size > 0 && !given {
		return size
	}
	return fs.Lookup(name).Value.(flag.Getter).Get().(int)
}

// NewDetector builds the campaign detector of a replay, so the report
// (synalyze) and the store (syningest) of one capture hold identical
// campaigns: thresholds scaled to the telescope size (core.ScaledConfig),
// minDsts > 0 overriding the distinct-destination threshold, and workers > 1
// sharding detection per source address across that many goroutines with
// results identical to the sequential detector. emit receives every closed
// flow, on the goroutine that calls Ingest or FlushAll.
func NewDetector(telescopeSize, minDsts, workers int, reg *obs.Registry, emit func(*core.Scan)) core.Ingester {
	cfg := core.ScaledConfig(telescopeSize)
	if minDsts > 0 {
		cfg.MinDistinctDsts = minDsts
	}
	return core.NewDetector(cfg, emit, core.WithWorkers(workers), core.WithMetrics(reg))
}
