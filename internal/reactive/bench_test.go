package reactive

import (
	"testing"
	"time"

	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/telescope"
)

// observeCases are the table states BenchmarkReactiveObserve measures.
// "fill" keeps fewer tuples in play than a 4096-slot table holds, so after
// the first round a SYN re-invites in place and nothing is evicted; "churn"
// plays sixteen such tables' worth, so the table runs full and every SYN
// evicts the oldest invitation, in a table small enough to stay in cache.
// "churn-default" is the table ingest_reactive churns: the default 65 536
// slots, twice that many tuples, one SYN a millisecond at the default
// 1000/s, so every SYN evicts an invitation that outlived its 30 s — the
// state a busy telescope spends the whole capture in, with the cache misses
// of a table that size.
var observeCases = []observeCase{{"fill", 4096, 2048}, {"churn", 4096, 4096 * 16}, {"churn-default", 0, 2 << 16}}

type observeCase struct {
	name             string
	maxState, tuples int
}

// checkState fails unless a table that has seen a whole round is in the
// state the case names: evicting or expiring invitations exactly when there
// are more tuples than slots, never rate-limited, completing handshakes.
func (bc observeCase) checkState(tb testing.TB, st Stats) {
	tb.Helper()
	slots := bc.maxState
	if slots == 0 {
		slots = 1 << 16 // New's default
	}
	if (bc.tuples > slots) != (st.Evicted+st.Expired > 0) || st.RateLimited > 0 || st.Phase2 == 0 {
		tb.Fatalf("%s did not reach the state it names, %d tuples in %d slots: %+v", bc.name, bc.tuples, slots, st)
	}
}

// observeProbes is one round of a case: a SYN a millisecond per tuple, with
// a handshake ACK behind every fourth. Round i plays it i spans later.
func observeProbes(tel *telescope.Telescope, tuples int) (probes []packet.Probe, span int64) {
	probes = make([]packet.Probe, 0, tuples*5/4)
	for i := 0; i < tuples; i++ {
		// One SYN per millisecond: the default 1000/s answers each.
		p := packet.Probe{
			Time: int64(i) * int64(time.Millisecond), Src: uint32(0xC0A80000 + i),
			Dst: tel.At(i % tel.Size()), SrcPort: uint16(30000 + i%512),
			DstPort: uint16([]int{80, 443, 22, 8080}[i%4]),
			Seq:     uint32(i) * 131, Flags: packet.FlagSYN, TTL: 64,
		}
		probes = append(probes, p)
		if i%4 == 0 {
			p.Time += int64(time.Microsecond)
			p.Flags = packet.FlagACK
			probes = append(probes, p)
		}
	}
	return probes, int64(tuples) * int64(time.Millisecond)
}

// observeRound plays the n-th probe of the rounds, counting from 0.
func observeRound(rt *Telescope, probes []packet.Probe, span int64, n int) {
	p := probes[n%len(probes)]
	p.Time += int64(n/len(probes)) * span
	rt.Observe(&p)
}

// TestReactiveObserveStates: after a whole round and the first probe of the
// next, each of BenchmarkReactiveObserve's tables is in the state its name
// says. The benchmark checks the same only when b.N runs past a round, which
// a one-iteration smoke run never does.
func TestReactiveObserveStates(t *testing.T) {
	tel := passive(t)
	for _, bc := range observeCases {
		t.Run(bc.name, func(t *testing.T) {
			pol := DefaultPolicy(7)
			pol.MaxState = bc.maxState
			rt := New(tel, pol)
			probes, span := observeProbes(tel, bc.tuples)
			for n := 0; n <= len(probes); n++ {
				observeRound(rt, probes, span, n)
			}
			bc.checkState(t, rt.Stats())
		})
	}
}

// BenchmarkReactiveObserve is the micro-view of the stage ledger's
// reactive.observe_ns_per_pkt: the reactive telescope's ingress — membership,
// rate limit, invitation table — in each of observeCases' states.
func BenchmarkReactiveObserve(b *testing.B) {
	tel := passive(b)
	for _, bc := range observeCases {
		b.Run(bc.name, func(b *testing.B) {
			pol := DefaultPolicy(7)
			pol.MaxState = bc.maxState
			rt := New(tel, pol)
			probes, span := observeProbes(tel, bc.tuples)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				observeRound(rt, probes, span, i)
			}
			b.StopTimer()
			if b.N > len(probes) {
				bc.checkState(b, rt.Stats())
			}
		})
	}
}
