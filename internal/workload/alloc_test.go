package workload

import (
	"testing"

	"github.com/synscan/synscan/internal/alloctest"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/reactive"
)

// TestAllocBudgetScenarioRun is the enforced budget for the generator's
// merge. A one-way Run allocates its heap and its lent probe and nothing
// per emitted probe, whatever the run's length ("workload-run", per run). A
// RunReactive allocates nothing per answered SYN that schedules a follow-up
// once its free list is warm ("workload-run-followup", per follow-up): what
// it does allocate is each payload push's Payload, which the caller may
// keep, and a bounded remainder (the responder's table growth, a two-phase
// campaign's handshake stack, the free list's peak), all of it subtracted or
// amortized.
func TestAllocBudgetScenarioRun(t *testing.T) {
	t.Run("oneway", func(t *testing.T) {
		s := testScenario(t, 2020, 0.0002)
		var sum Summary
		allocs, bytes := alloctest.Measure(3, func() { sum = s.Run(func(*packet.Probe) {}) })
		t.Logf("%d probes per run", sum.Probes)
		alloctest.Enforce(t, "workload-run", 2, allocs, bytes)
	})
	t.Run("reactive", func(t *testing.T) {
		s := testScenario(t, 2021, 0.0002)
		scheduled := 0
		for _, sp := range s.specs {
			scheduled += sp.count
		}
		var sum Summary
		pushes := 0
		allocs, bytes := alloctest.Measure(2, func() {
			// A responder per run: one that has seen the window answers
			// nothing the second time (its rate bucket is spent).
			rt := reactive.New(s.Telescope, reactive.DefaultPolicy(1))
			pushes = 0
			sum = s.RunReactive(rt, func(p *packet.Probe, _ reactive.Disposition) {
				if p.HasPayload() {
					pushes++
				}
			})
		})
		// The follow-up packets are the run's packets past the scenario's
		// own. A follow-up spec holds a handshake SYN, or an ACK and a push,
		// so the specs number those packets less the pushes.
		followups := int(sum.Probes) - scheduled - pushes
		t.Logf("%d packets, %d SYN-ACKs, %d follow-ups, %d pushes; %.0f allocations per run",
			sum.Probes, sum.Responses, followups, pushes, allocs)
		if followups < 1000 {
			t.Fatalf("only %d follow-ups: the run does not exercise the free list", followups)
		}
		alloctest.Enforce(t, "workload-run-followup", 0,
			(allocs-float64(pushes))/float64(followups), bytes/float64(followups))
	})
}
