package core

import (
	"testing"
	"time"

	"github.com/synscan/synscan/internal/alloctest"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/rng"
)

// warm drives a detector over the same 32 sources × 64 probes again and
// again: warm flows, resident destination and port sets, one Ingest per
// probe. Every pass moves the stream's clock on by its span, so the stream
// stays in order: replayed with the timestamps it had, every probe from the
// second pass on would be late and a pass would time the clamp for reordered
// input. A pass spans two seconds and expiry is an hour, so no flow closes.
type warm struct {
	d      Ingester
	stream []packet.Probe
}

func newWarm(d Ingester) *warm {
	const sources, perSource = 32, 64
	w := &warm{d: d, stream: make([]packet.Probe, 0, sources*perSource)}
	for s := 0; s < sources; s++ {
		for i := 0; i < perSource; i++ {
			w.stream = append(w.stream, packet.Probe{
				Time:    int64(s*perSource+i) * int64(time.Millisecond),
				Src:     uint32(s + 1),
				Dst:     uint32(0x0a000000 + i%48),
				DstPort: uint16(20 + i%8),
				Seq:     uint32(i) * 977,
				Flags:   packet.FlagSYN,
			})
		}
	}
	return w
}

// pass feeds the whole stream once. BenchmarkDetectorIngest times it.
func (w *warm) pass() {
	span := int64(len(w.stream)) * int64(time.Millisecond)
	for j := range w.stream {
		w.d.Ingest(&w.stream[j])
		w.stream[j].Time += span
	}
}

// TestAllocBudgetAbsorb is the enforced budget for the detector's
// steady-state absorb: once flows, destination sets and port sets exist, a
// pass over a warm, in-order stream must not allocate at all. This is the
// regime a long-running telescope spends almost all its time in; the budget
// is reported under "detector-absorb". No probe of the measured passes may
// take the clamp for late probes, or the budget would time another branch.
func TestAllocBudgetAbsorb(t *testing.T) {
	reg := obs.NewRegistry()
	w := newWarm(NewDetector(Config{TelescopeSize: testTelescopeSize}, nil, WithMetrics(reg)))
	alloctest.Check(t, "detector-absorb", 0, w.pass)
	if n := reg.Snapshot().Counter("detector.end_clamp"); n != 0 {
		t.Fatalf("detector.end_clamp = %d: the measured passes were not in order", n)
	}
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
// BenchmarkDetectorChurn times it.
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

// campaignRounds drives a detector through rounds that each open noiseFlows
// single-packet sources and then one 300-destination campaign. A round's
// flows stay open for campaignWindow rounds and close together at the first
// probe of the round that many later; within a round the noise probes arrive
// in a shuffled order, so the noise flows close in another order than they
// opened in. Each campaign reopens a closed flow from behind its round's
// noise flows, and which one moves from round to round over the few hundred
// in circulation, as on a telescope.
type campaignRounds struct {
	d     Ingester
	r     *rng.Rand
	round int64
	src   uint32
	p     packet.Probe // lives here so that handing &p to Ingest allocates nothing
}

const (
	noiseFlows     = 7  // a prime: the shuffle is i ↦ a·i + b mod noiseFlows
	campaignWindow = 32 // rounds a flow stays open
	roundGap       = int64(time.Second)
)

// campaignConfig expires a round's flows campaignWindow rounds after it.
var campaignConfig = Config{TelescopeSize: testTelescopeSize, Expiry: campaignWindow*roundGap - roundGap/2}

func (c *campaignRounds) next() {
	c.round++
	t0 := c.round * roundGap
	a, b := 1+c.r.Intn(noiseFlows-1), c.r.Intn(noiseFlows)
	c.p = packet.Probe{Flags: packet.FlagSYN, DstPort: 23, Dst: 0x0a000000}
	for i := 0; i < noiseFlows; i++ {
		c.src++
		c.p.Src, c.p.Time = c.src, t0+int64((a*i+b)%noiseFlows)
		c.d.Ingest(&c.p)
	}
	c.src++
	c.p.Src = c.src
	for i := 0; i < 300; i++ {
		c.p.Time, c.p.Dst = t0+int64(noiseFlows+i), uint32(0x0a000000+i*7)
		c.d.Ingest(&c.p)
	}
}

// TestAllocBudgetChurnCampaigns is the enforced budget for campaigns that
// recycle: once warm, a round costs what its eight closed flows hand the
// caller — a Scan and its Ports each — and nothing for the campaign's
// 512-slot destination table, which it takes from the table pool instead of
// regrowing from the eight slots of the flow it reopens. Reported under
// "detector-churn-campaigns".
func TestAllocBudgetChurnCampaigns(t *testing.T) {
	var closed int
	c := &campaignRounds{d: NewDetector(campaignConfig, func(*Scan) { closed++ }), r: rng.New(5)}
	for i := 0; i < 2*campaignWindow; i++ {
		c.next()
	}
	if want := campaignWindow * (noiseFlows + 1); closed != want {
		t.Fatalf("%d flows closed in %d rounds, want %d", closed, 2*campaignWindow, want)
	}
	alloctest.Check(t, "detector-churn-campaigns", 2*(noiseFlows+1), c.next)
}
