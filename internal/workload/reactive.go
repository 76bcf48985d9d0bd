package workload

import (
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/reactive"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
)

// twoPhaseSalt separates the two-phase designation hash from the jitter
// stream that shares jitSeed.
const twoPhaseSalt = 0x74776f7068617365 // "twophase"

// isTwoPhase designates which scan campaigns run a second, stateful phase:
// stateless masscan-style sweeps, a per-year share of them (TwoPhaseShare),
// chosen by a stateless hash of the spec's jitter seed so that designation
// consumes no generator randomness — Run's passive packet stream is
// bit-identical whether or not a reactive run ever happens.
func (s *Scenario) isTwoPhase(sp *spec) bool {
	if sp.kind != kindScan || sp.inst || sp.prober.Tool() != tools.ToolMasscan {
		return false
	}
	share := s.Profile.TwoPhaseShare
	return float64(hash64(sp.jitSeed^twoPhaseSalt)%(1<<20))/(1<<20) < share
}

// RunReactive replays the scenario through a reactive telescope: every
// arriving packet is classified by rt, and for campaigns designated
// two-phase, a synthesized SYN-ACK triggers the scanner's second phase — a
// kernel-stack handshake SYN seconds later, then the completing ACK and a
// payload push at round-trip cadence, exactly the masscan→stateful-stack
// chain Spoki characterizes.
//
// emit is called once per arriving packet with the responder's disposition
// (emit sees drops too, so callers can keep full pcap traces; gate ingest on
// d.Reason == telescope.Accepted). Synthesized SYN-ACKs are delivered inside
// the Disposition; they leave the telescope rather than arrive at it. As in
// Run, emit is lent one *packet.Probe that is valid until it returns (a
// phase-two push's Payload is the caller's to keep), and equal-time packets
// come out in container/heap's order over the specs' next-packet times.
//
// The run is deterministic: follow-up timing and handshake state derive from
// per-spec seeds, and the single-threaded heap loop orders packets by
// virtual time. Follow-up specs are recycled through a free list once their
// packets are out, so an answered SYN allocates nothing once it is warm.
func (s *Scenario) RunReactive(rt *reactive.Telescope, emit func(*packet.Probe, reactive.Disposition)) Summary {
	var sum Summary
	h := make(specHeap, 0, len(s.specs))
	for _, sp := range s.specs {
		if sp.count <= 0 {
			continue
		}
		sp.idx = 0
		sp.twoPhase = s.isTwoPhase(sp)
		sp.tp, sp.fr = nil, nil
		h = append(h, heapEntry{sp.timeAt(0), sp})
		switch sp.kind {
		case kindScan:
			sum.Campaigns++
			if sp.twoPhase {
				sum.TwoPhaseCampaigns++
			}
		case kindBackground:
			sum.BackgroundSources++
		}
	}
	h.init()

	p := new(packet.Probe)
	var free []*spec // follow-up specs whose packets are all out
	for len(h) > 0 {
		top := &h[0]
		sp := top.sp
		sp.load(p, s.Telescope, sp.idx, top.next)
		d := rt.Observe(p)
		emit(p, d)
		sum.Probes++
		if sp.inst {
			sum.InstitutionalProbes++
		}
		if d.Phase == 2 {
			sum.Phase2Probes++
		}

		var follow *spec
		if d.Responded {
			sum.Responses++
			switch {
			case sp.twoPhase:
				// A scout probe was answered: the scanning host's kernel
				// stack opens a real connection after a think-time delay.
				if sp.tp == nil {
					fseed := rng.New(sp.jitSeed).Derive("reactive/followup")
					sp.tp = tools.NewTwoPhase(sp.prober, p.Src, fseed.Derive("stack"))
					sp.fr = fseed.Derive("timing")
				}
				follow = followup(&free, sp, 1)
				hs := &follow.pending[0]
				*hs = sp.tp.HandshakeSYN(p.Dst, p.DstPort)
				// Spoki: the second phase arrives seconds after the scout.
				hs.Time = p.Time + int64(1e9) + sp.fr.Int63n(2e9)
			case sp.kind == kindFollowup:
				// Our handshake SYN was answered: complete the handshake and
				// push the application payload one round trip later.
				rtt := int64(30e6) + sp.fr.Int63n(int64(170e6))
				follow = followup(&free, sp, 2)
				ack, push := &follow.pending[0], &follow.pending[1]
				*ack = sp.tp.HandshakeACK(p, d.ISN)
				ack.Time = p.Time + rtt
				*push = sp.tp.PayloadPush(p, d.ISN)
				push.Time = p.Time + 2*rtt
			}
		}

		sp.idx++
		if sp.idx >= sp.count {
			h.pop()
			if sp.kind == kindFollowup {
				free = append(free, sp)
			}
		} else {
			top.next = sp.timeAt(sp.idx)
			h.fixTop()
		}
		if follow != nil {
			h.push(follow)
		}
	}
	return sum
}

// followup returns a follow-up spec for count prebuilt packets on sp's
// connection, taking an exhausted one from free when there is one. The
// caller fills pending[:count].
func followup(free *[]*spec, sp *spec, count int) *spec {
	var f *spec
	if n := len(*free); n > 0 {
		f = (*free)[n-1]
		*free = (*free)[:n-1]
	} else {
		f = new(spec)
	}
	*f = spec{kind: kindFollowup, count: count, tp: sp.tp, fr: sp.fr}
	return f
}
