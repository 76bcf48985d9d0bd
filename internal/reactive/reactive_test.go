package reactive

import (
	"testing"

	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/telescope"
)

func passive(t testing.TB) *telescope.Telescope {
	t.Helper()
	tel, err := telescope.New(telescope.Config{
		Blocks: []telescope.PartialBlock{
			{Prefix: inetmodel.MustPrefix("10.1.0.0/20"), MonitoredFraction: 0.5},
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tel
}

func syn(tel *telescope.Telescope, ts int64, src uint32, sp, dp uint16) packet.Probe {
	return packet.Probe{Time: ts, Src: src, Dst: tel.At(0), SrcPort: sp,
		DstPort: dp, Seq: 1000, Flags: packet.FlagSYN, TTL: 64}
}

func TestRespondAndPhase2(t *testing.T) {
	tel := passive(t)
	rt := New(tel, Policy{Seed: 7})
	reg := obs.NewRegistry()
	rt.SetMetrics(reg)

	p := syn(tel, 100, 0xC0A80001, 40000, 80)
	d := rt.Observe(&p)
	if d.Reason != telescope.Accepted || d.Phase != 1 || !d.Responded {
		t.Fatalf("scout SYN: %+v", d)
	}
	// The SYN-ACK mirrors the connection and acknowledges seq+1.
	resp := d.SynAck(&p)
	if resp.Src != p.Dst || resp.Dst != p.Src ||
		resp.SrcPort != p.DstPort || resp.DstPort != p.SrcPort {
		t.Fatalf("SYN-ACK tuple not mirrored: %+v", resp)
	}
	if !resp.IsSYNACK() || resp.Ack != p.Seq+1 || resp.Seq != d.ISN || resp.Time != p.Time {
		t.Fatalf("SYN-ACK flags/seq/ack/time wrong: %+v", resp)
	}

	// The handshake-completing ACK would be dropped passively, but is
	// phase-two here.
	ack := p
	ack.Time = 200
	ack.Seq, ack.Ack = p.Seq+1, d.ISN+1
	ack.Flags = packet.FlagACK
	if dd := rt.Observe(&ack); dd.Reason != telescope.Accepted || dd.Phase != 2 {
		t.Fatalf("handshake ACK: %+v", dd)
	}

	// The payload push too.
	push := ack
	push.Time = 300
	push.Flags = packet.FlagPSH | packet.FlagACK
	push.Payload = []byte("GET / HTTP/1.1\r\n")
	if dd := rt.Observe(&push); dd.Reason != telescope.Accepted || dd.Phase != 2 {
		t.Fatalf("payload push: %+v", dd)
	}

	// A stranger's ACK stays dropped.
	other := ack
	other.SrcPort = 999
	if dd := rt.Observe(&other); dd.Reason != telescope.DropNotSYN || dd.Phase != 0 {
		t.Fatalf("uninvited ACK: %+v", dd)
	}

	st := rt.Stats()
	if st.Responded != 1 || st.Phase2 != 2 || st.Payloads != 1 {
		t.Fatalf("stats %+v", st)
	}
	snap := reg.Snapshot()
	if snap.Counters["reactive.synacks.sent"] != 1 ||
		snap.Counters["reactive.phase2.accepted"] != 2 ||
		snap.Counters["reactive.phase2.payloads"] != 1 {
		t.Fatalf("metrics %+v", snap.Counters)
	}
	// Passive accounting stays truthful: 3 accepted (1 SYN + 2 phase-two),
	// 1 not-syn drop.
	ts := tel.Stats()
	if ts.Accepted != 3 || ts.NotSYN != 1 {
		t.Fatalf("telescope stats %+v", ts)
	}
}

func TestInviteExpiry(t *testing.T) {
	tel := passive(t)
	rt := New(tel, Policy{Seed: 7, StateTTL: 1e9})
	p := syn(tel, 0, 0xC0A80001, 40000, 80)
	if d := rt.Observe(&p); !d.Responded {
		t.Fatal("no response")
	}
	late := p
	late.Time = 2e9 // past the 1s TTL
	late.Flags = packet.FlagACK
	late.Ack = 1
	if d := rt.Observe(&late); d.Reason != telescope.DropNotSYN {
		t.Fatalf("expired handshake admitted: %+v", d)
	}
	if st := rt.Stats(); st.Expired != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPortAllowlist(t *testing.T) {
	tel := passive(t)
	rt := New(tel, Policy{Seed: 7, Ports: []uint16{80, 8080}})
	p := syn(tel, 0, 0xC0A80001, 40000, 443)
	d := rt.Observe(&p)
	if d.Reason != telescope.Accepted || d.Phase != 1 {
		t.Fatalf("SYN off-allowlist must still be accepted passively: %+v", d)
	}
	if d.Responded {
		t.Fatal("responded outside the allowlist")
	}
	p2 := syn(tel, 0, 0xC0A80001, 40001, 8080)
	if d := rt.Observe(&p2); !d.Responded {
		t.Fatal("no response on allowlisted port")
	}
	if st := rt.Stats(); st.PolicyDenied != 1 || st.Responded != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRateLimit(t *testing.T) {
	tel := passive(t)
	rt := New(tel, Policy{Seed: 7, RatePerSec: 1, Burst: 1})
	p1 := syn(tel, 0, 0xC0A80001, 40000, 80)
	p2 := syn(tel, 1000, 0xC0A80002, 40000, 80)
	p3 := syn(tel, 1e9, 0xC0A80003, 40000, 80)
	if d := rt.Observe(&p1); !d.Responded {
		t.Fatal("first SYN not answered")
	}
	if d := rt.Observe(&p2); d.Responded {
		t.Fatal("bucket should be empty")
	}
	if d := rt.Observe(&p3); !d.Responded {
		t.Fatal("bucket should have refilled after 1s")
	}
	if st := rt.Stats(); st.RateLimited != 1 || st.Responded != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDeterministicResponses(t *testing.T) {
	mk := func() []packet.Probe {
		tel := passive(t)
		rt := New(tel, Policy{Seed: 42, RatePerSec: 100})
		var out []packet.Probe
		for i := 0; i < 50; i++ {
			p := syn(tel, int64(i)*1e7, 0xC0A80000+uint32(i), uint16(40000+i), 80)
			if d := rt.Observe(&p); d.Responded {
				out = append(out, d.SynAck(&p))
			}
		}
		return out
	}
	a, b := mk(), mk()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("response streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ap, bp := a[i], b[i]
		if ap.Seq != bp.Seq || ap.Src != bp.Src || ap.Ack != bp.Ack {
			t.Fatalf("response %d differs: %+v vs %+v", i, ap, bp)
		}
	}
}

func TestStateEviction(t *testing.T) {
	tel := passive(t)
	rt := New(tel, Policy{Seed: 7, MaxState: 2})
	for i := 0; i < 3; i++ {
		p := syn(tel, int64(i), 0xC0A80001, uint16(40000+i), 80)
		if d := rt.Observe(&p); !d.Responded {
			t.Fatalf("SYN %d not answered", i)
		}
	}
	if st := rt.Stats(); st.Evicted != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The evicted (oldest) invitation no longer admits its handshake.
	old := syn(tel, 10, 0xC0A80001, 40000, 80)
	old.Flags = packet.FlagACK
	if d := rt.Observe(&old); d.Phase == 2 {
		t.Fatal("evicted invitation still live")
	}
	// The newest one does.
	fresh := syn(tel, 10, 0xC0A80001, 40002, 80)
	fresh.Flags = packet.FlagACK
	if d := rt.Observe(&fresh); d.Phase != 2 {
		t.Fatalf("fresh invitation dead: %+v", d)
	}
}
