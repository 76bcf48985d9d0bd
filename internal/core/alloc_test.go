package core

import (
	"testing"
	"time"

	"github.com/synscan/synscan/internal/alloctest"
	"github.com/synscan/synscan/internal/packet"
)

// TestAllocBudgetAbsorb is the enforced budget for the detector's
// steady-state absorb: once flows, destination sets and port sets exist,
// IngestBatch over a warm stream — same sources, resident keys, clock inside
// the expiry window — must not allocate at all. This is the regime a
// long-running telescope spends almost all its time in; the budget is
// reported under "detector-absorb".
func TestAllocBudgetAbsorb(t *testing.T) {
	d := NewDetector(Config{TelescopeSize: testTelescopeSize}, nil)
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
	alloctest.Check(t, "detector-absorb", 0, func() {
		d.IngestBatch(stream)
	})
}

// churn drives a detector through whole flow lifecycles.
type churn struct {
	d   Ingester
	tm  int64
	src uint32
	p   packet.Probe // lives here so that handing &p to Ingest allocates nothing
}

// flow feeds the detector one whole flow from a source it has not seen: fifty
// probes over a handful of destinations and three ports — every 64th flow is
// a sweep of fifty ports instead. The clock then jumps past the expiry
// window, so the next flow's first probe closes this one.
// BenchmarkDetectorChurn in the root package drives the same lifecycle.
func (c *churn) flow() {
	c.src++
	sweep := c.src%64 == 0
	c.p = packet.Probe{Src: c.src, Flags: packet.FlagSYN}
	for i := 0; i < 50; i++ {
		c.tm += int64(time.Millisecond)
		c.p.Time, c.p.Dst, c.p.Seq = c.tm, uint32(0x0a000000+i%12), uint32(i)*977
		if c.p.DstPort = uint16(20 + i%3); sweep {
			c.p.DstPort = uint16(i * 1311)
		}
		c.d.Ingest(&c.p)
	}
	c.tm += 2 * DefaultExpiry
}

// TestAllocBudgetChurn is the enforced budget for the other half of the
// detector's life, which TestAllocBudgetAbsorb never reaches: flows opening
// and closing. In steady state a flow is opened from the free list and its
// sets are reused, so a closed flow costs exactly what it hands the caller —
// the Scan and its Ports (a Payload too, had there been one) — and nothing
// for the sets; a sweep's bitmap comes from the pool. Reported under
// "detector-churn".
func TestAllocBudgetChurn(t *testing.T) {
	c := &churn{d: NewDetector(Config{TelescopeSize: testTelescopeSize}, nil)}
	alloctest.Check(t, "detector-churn", 2, c.flow)
}
