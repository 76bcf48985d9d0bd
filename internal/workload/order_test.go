package workload

import (
	"container/heap"
	"reflect"
	"testing"

	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/reactive"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
)

// refHeap is the merge heap as an interface-based container/heap whose Less
// recomputes both specs' next-probe times: the reference for the
// inline-keyed specHeap.
type refHeap []*spec

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].timeAt(h[i].idx) < h[j].timeAt(h[j].idx) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*spec)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	sp := old[n-1]
	*h = old[:n-1]
	return sp
}

// refEmit is one packet of a reference run, with the spec that sent it.
type refEmit struct {
	p  packet.Probe
	d  reactive.Disposition
	sp *spec
}

// refRun is Run's merge on refHeap, a fresh probe per packet. With rt set it
// is RunReactive's, a fresh follow-up spec per answered SYN.
func refRun(s *Scenario, rt *reactive.Telescope, emit func(refEmit)) Summary {
	var sum Summary
	h := make(refHeap, 0, len(s.specs))
	for _, sp := range s.specs {
		if sp.count <= 0 {
			continue
		}
		sp.idx = 0
		if rt != nil {
			sp.twoPhase = s.isTwoPhase(sp)
			sp.tp, sp.fr = nil, nil
		}
		h = append(h, sp)
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
	heap.Init(&h)
	for h.Len() > 0 {
		sp := h[0]
		var p packet.Probe
		sp.load(&p, s.Telescope, sp.idx, sp.timeAt(sp.idx))
		var d reactive.Disposition
		if rt != nil {
			d = rt.Observe(&p)
		}
		emit(refEmit{p, d, sp})
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
				if sp.tp == nil {
					fseed := rng.New(sp.jitSeed).Derive("reactive/followup")
					sp.tp = tools.NewTwoPhase(sp.prober, p.Src, fseed.Derive("stack"))
					sp.fr = fseed.Derive("timing")
				}
				hs := sp.tp.HandshakeSYN(p.Dst, p.DstPort)
				hs.Time = p.Time + int64(1e9) + sp.fr.Int63n(2e9)
				follow = &spec{kind: kindFollowup, count: 1, tp: sp.tp, fr: sp.fr}
				follow.pending[0] = hs
			case sp.kind == kindFollowup:
				rtt := int64(30e6) + sp.fr.Int63n(int64(170e6))
				ack := sp.tp.HandshakeACK(&p, d.ISN)
				ack.Time = p.Time + rtt
				push := sp.tp.PayloadPush(&p, d.ISN)
				push.Time = p.Time + 2*rtt
				follow = &spec{kind: kindFollowup, count: 2, tp: sp.tp, fr: sp.fr}
				follow.pending = [2]packet.Probe{ack, push}
			}
		}
		sp.idx++
		if sp.idx >= sp.count {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
		if follow != nil {
			heap.Push(&h, follow)
		}
	}
	return sum
}

// checkAgainstReference runs the reference on ref and the merge under test
// on s (two scenarios of one configuration: a run consumes its specs'
// generator state), compares them packet by packet, every field, and the
// summaries, and returns how many packets tie in time with the previous one
// from another spec — the cases the merge's tie order decides.
func checkAgainstReference(t *testing.T, ref, s *Scenario, reactiveRun bool) (sum Summary, ties int) {
	t.Helper()
	// The reference streams through a channel in batches, so neither run is
	// held in memory whole; a few batches of slack let the two runs overlap.
	batches := make(chan []refEmit, 4)
	var refSum Summary
	go func() {
		defer close(batches)
		var rt *reactive.Telescope
		if reactiveRun {
			rt = reactive.New(ref.Telescope, reactive.DefaultPolicy(1))
		}
		batch := make([]refEmit, 0, 4096)
		var last refEmit
		refSum = refRun(ref, rt, func(e refEmit) {
			if last.sp != nil && e.p.Time == last.p.Time && e.sp != last.sp {
				ties++
			}
			last = e
			batch = append(batch, e)
			if len(batch) == cap(batch) {
				batches <- batch
				batch = make([]refEmit, 0, 4096)
			}
		})
		batches <- batch
	}()

	var cur []refEmit
	n, bad := 0, 0
	check := func(p *packet.Probe, d reactive.Disposition) {
		if len(cur) == 0 {
			cur = <-batches
		}
		if len(cur) == 0 {
			if bad++; bad <= 3 {
				t.Errorf("packet %d: the reference run ended first", n)
			}
			n++
			return
		}
		want := cur[0]
		cur = cur[1:]
		if !reflect.DeepEqual(*p, want.p) || !reflect.DeepEqual(d, want.d) {
			if bad++; bad <= 3 {
				t.Errorf("packet %d differs from the reference:\n got %+v %+v\nwant %+v %+v",
					n, *p, d, want.p, want.d)
			}
		}
		n++
	}
	if reactiveRun {
		rt := reactive.New(s.Telescope, reactive.DefaultPolicy(1))
		sum = s.RunReactive(rt, check)
	} else {
		sum = s.Run(func(p *packet.Probe) { check(p, reactive.Disposition{}) })
	}
	rest := len(cur)
	for b := range batches {
		rest += len(b)
	}
	if rest > 0 {
		t.Errorf("the run ended %d packets before the reference", rest)
	}
	if sum != refSum {
		t.Errorf("summary %+v, reference %+v", sum, refSum)
	}
	return sum, ties
}

// TestRunOrderMatchesHeapReference pins the merge to container/heap's order:
// the inline-keyed heap must emit the stream an interface-based heap that
// recomputes timeAt in Less emits, packet for packet and every field,
// equal-time packets from different specs included.
func TestRunOrderMatchesHeapReference(t *testing.T) {
	t.Run("oneway-2024", func(t *testing.T) {
		// The 2024 window at the ingest benchmark's capture configuration
		// (ecosystem seed 2021, vantage point 1, scale 0.00056, 4096
		// addresses): recent years schedule their campaigns densely enough
		// that hundreds of probes tie in time across specs.
		build := func() *Scenario {
			s, err := NewScenario(Config{Year: 2024, Seed: 2021, TelescopeSeed: 1,
				Scale: 0.00056, TelescopeSize: 4096})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		sum, ties := checkAgainstReference(t, build(), build(), false)
		t.Logf("%d probes, %d equal-time pairs across specs", sum.Probes, ties)
		if ties == 0 {
			t.Error("no equal-time pairs across specs: the window does not test the tie order")
		}
	})
	t.Run("reactive-2021", func(t *testing.T) {
		build := func() *Scenario { return testScenario(t, 2021, 0.0005) }
		sum, ties := checkAgainstReference(t, build(), build(), true)
		t.Logf("%d packets, %d SYN-ACKs, %d phase-two, %d equal-time pairs across specs",
			sum.Probes, sum.Responses, sum.Phase2Probes, ties)
		if sum.Responses == 0 || sum.Phase2Probes == 0 {
			t.Errorf("no follow-ups (%+v): the run does not test them", sum)
		}
	})
}
