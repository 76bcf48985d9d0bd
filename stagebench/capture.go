package main

import (
	"fmt"

	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/reactive"
	"github.com/synscan/synscan/internal/workload"
)

// Capture parameters shared by both ingest workloads. Names the scenario the
// ISSUE fixed: year 2021 at a 4096-address telescope.
const (
	captureYear      = 2021
	captureTelescope = 4096
	ecosystemSeed    = 2021
	// junkEvery places one undecodable frame (truncated, non-IPv4 or a later
	// fragment) after about every junkEvery-th rendered frame, so the
	// frames = undecodable + telescope-accounted check has something to count.
	junkEvery = 257
)

// capture is one scenario year rendered to the bytes a telescope's capture
// layer hands the pipeline: Ethernet frames laid end to end, each with the
// timestamp the capture layer recorded for it. The program under test sees
// only this, never the generator.
type capture struct {
	data  []byte
	off   []uint32 // frame i is data[off[i]:off[i+1]]
	times []int64
	junk  int // frames rendered undecodable on purpose
}

func (c *capture) frames() int        { return len(c.times) }
func (c *capture) frame(i int) []byte { return c.data[c.off[i]:c.off[i+1]] }

func (c *capture) add(frame []byte, t int64) {
	c.data = append(c.data, frame...)
	c.off = append(c.off, uint32(len(c.data)))
	c.times = append(c.times, t)
}

// mix is splitmix64's finalizer: the harness's stateless hash for choices
// that must depend on the seed and a position and on nothing else.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// addProbe renders p and, at seed-chosen positions, a damaged copy after it.
func (c *capture) addProbe(p *packet.Probe, seed uint64, scratch []byte) []byte {
	scratch = p.AppendFrame(scratch[:0])
	c.add(scratch, p.Time)
	h := mix(seed ^ uint64(len(c.times))<<20)
	if h%junkEvery != 0 {
		return scratch
	}
	switch (h / junkEvery) % 3 {
	case 0: // cut inside the IPv4 header
		c.add(scratch[:packet.EthernetHeaderLen+9], p.Time)
	case 1: // IPv6 ethertype
		scratch[12], scratch[13] = 0x86, 0xdd
		c.add(scratch, p.Time)
	default: // non-first fragment: offset 1, checksum left stale on purpose
		scratch[packet.EthernetHeaderLen+7] |= 1
		c.add(scratch, p.Time)
	}
	c.junk++
	return scratch
}

// newScenario builds the scenario year with repo code. The seed picks the
// vantage point — which addresses the telescope monitors, and with them every
// destination address in the capture — while the scanning ecosystem observed
// stays the one of ecosystemSeed (workload.Config.TelescopeSeed exists for
// exactly this, the paper's §7 two-telescope comparison). Drawing a new
// ecosystem per seed moves heap bytes per frame by ±10 % and sealed bytes per
// frame by ±6 % between seeds, several times the bounds those counts are
// gated at; a new vantage point moves them by about 1 % and 0.1 %.
func newScenario(seed uint64, scale float64) (*workload.Scenario, error) {
	s, err := workload.NewScenario(workload.Config{
		Year: captureYear, Seed: ecosystemSeed, TelescopeSeed: seed, Scale: scale, TelescopeSize: captureTelescope,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %d seed %d: %w", captureYear, seed, err)
	}
	return s, nil
}

// renderCapture replays the scenario once through the generator and keeps
// the frames. A reactive capture is recorded behind a live responder, so it
// also holds the phase-two segments that the responder's SYN-ACKs provoked.
// The frames go into c's buffers when c is not nil: growing 30 MB of slices
// by doubling is the harness's cost, not the generator's, and it would
// otherwise be two fifths of the set-up time and most of its noise.
func renderCapture(s *workload.Scenario, seed uint64, reactiveMode bool, c *capture) *capture {
	if c == nil {
		c = &capture{}
	}
	c.data, c.off, c.times, c.junk = c.data[:0], append(c.off[:0], 0), c.times[:0], 0
	scratch := make([]byte, 0, 256)
	if !reactiveMode {
		s.Run(func(p *packet.Probe) { scratch = c.addProbe(p, seed, scratch) })
		return c
	}
	rt := reactive.New(s.Telescope, reactive.DefaultPolicy(seed))
	s.RunReactive(rt, func(p *packet.Probe, _ reactive.Disposition) {
		scratch = c.addProbe(p, seed, scratch)
	})
	return c
}
