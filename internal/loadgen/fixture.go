package loadgen

import (
	"sort"
	"time"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
)

// FixtureScans builds n deterministic closed flows spread over the 2015–2024
// decade with realistic port, tool, and rate diversity, time-sorted so the
// written store carries tight per-block year zone maps (the layout a
// compacted store produces — StandardMix's pruned queries then actually
// prune).
func FixtureScans(n int, seed uint64) []*core.Scan {
	r := rng.New(seed).Derive("loadgen-fixture")
	ports := []uint16{22, 23, 80, 443, 445, 3389, 5060, 8080}
	tls := []tools.Tool{tools.ToolZMap, tools.ToolMasscan, tools.ToolMirai, tools.ToolUnicorn}
	out := make([]*core.Scan, n)
	for i := 0; i < n; i++ {
		year := 2015 + i%10
		start := time.Date(year, time.January, 1, 0, 0, 0, 0, time.UTC).UnixNano() +
			int64(r.Intn(300*24))*int64(time.Hour)
		out[i] = &core.Scan{
			Src:          uint32(r.Intn(1 << 30)),
			Start:        start,
			End:          start + int64(1+r.Intn(120))*int64(time.Minute),
			Packets:      uint64(50 + r.Intn(5000)),
			DistinctDsts: 20 + r.Intn(1000),
			Ports:        []uint16{ports[r.Intn(len(ports))]},
			Tool:         tls[r.Intn(len(tls))],
			Qualified:    i%3 != 0,
			RatePPS:      float64(100 + r.Intn(100000)),
			Coverage:     float64(r.Intn(1000)) / 1000,
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// WriteFixtureStore writes n fixture scans into a segment store at dir,
// ready for synserve to load. It is the store behind cmd/synload's
// self-serving mode and the CI load-smoke step.
func WriteFixtureStore(dir string, n int, seed uint64) error {
	w, err := archive.OpenSegmentDir(dir, archive.SegmentConfig{TelescopeSize: 65536})
	if err != nil {
		return err
	}
	for _, sc := range FixtureScans(n, seed) {
		if err := w.Add(sc); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}
