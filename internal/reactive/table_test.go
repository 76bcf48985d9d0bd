package reactive

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"github.com/synscan/synscan/internal/alloctest"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/telescope"
)

// mapResponder is the responder as it stood before the invitation table — a
// Go map from tuple to deadline plus an append-only FIFO queue of tuples —
// kept, like core.NaiveDetector for the detector, only as the oracle the
// table is tested against. It carries that implementation's two defects
// unrepaired (see TestExpiryCyclesKeepMemoryBounded and
// TestReinvitedTupleKeepsItsTurn), both of which need an invitation deleted
// by the expired-phase-two branch; lapsed counts those deletions so a test
// knows from which packet on the two may part.
type mapResponder struct {
	*Telescope // the defaulted policy, the port bitmap and the wrapped telescope; its table stays empty

	state   map[tuple]int64
	queue   []tuple
	qHead   int
	tokens  float64
	lastRef int64
	stats   Stats
	lapsed  int
}

func newMapResponder(base *telescope.Telescope, pol Policy) *mapResponder {
	shell := New(base, pol)
	return &mapResponder{Telescope: shell, state: make(map[tuple]int64), tokens: float64(shell.pol.Burst)}
}

func (t *mapResponder) Observe(p *packet.Probe) Disposition {
	r := t.base.Check(p)
	switch r {
	case telescope.Accepted:
		d := Disposition{Reason: telescope.Accepted, Phase: 1}
		t.respond(p, &d)
		t.base.Record(telescope.Accepted)
		return d
	case telescope.DropNotSYN:
		k := tuple{p.Src, p.Dst, p.SrcPort, p.DstPort}
		if expiry, ok := t.state[k]; ok && p.IsTCP() && !p.IsSYNACK() {
			if p.Time <= expiry {
				t.stats.Phase2++
				if p.HasPayload() {
					t.stats.Payloads++
				}
				t.base.Record(telescope.Accepted)
				return Disposition{Reason: telescope.Accepted, Phase: 2}
			}
			delete(t.state, k)
			t.stats.Expired++
			t.lapsed++
		}
	}
	t.base.Record(r)
	return Disposition{Reason: r}
}

func (t *mapResponder) respond(p *packet.Probe, d *Disposition) {
	if !t.portAllowed(p.DstPort) {
		t.stats.PolicyDenied++
		return
	}
	if t.pol.RatePerSec > 0 {
		if p.Time > t.lastRef {
			t.tokens += float64(p.Time-t.lastRef) * t.pol.RatePerSec / 1e9
			if max := float64(t.pol.Burst); t.tokens > max {
				t.tokens = max
			}
			t.lastRef = p.Time
		}
		if t.tokens < 1 {
			t.stats.RateLimited++
			return
		}
		t.tokens--
	}
	k := tuple{p.Src, p.Dst, p.SrcPort, p.DstPort}
	if _, exists := t.state[k]; !exists {
		for t.qHead < len(t.queue) && len(t.state) >= t.pol.MaxState {
			old := t.queue[t.qHead]
			t.qHead++
			expiry, ok := t.state[old]
			if !ok {
				continue
			}
			delete(t.state, old)
			if expiry < p.Time {
				t.stats.Expired++
			} else {
				t.stats.Evicted++
			}
		}
		t.queue = append(t.queue, k)
	}
	t.state[k] = p.Time + t.pol.StateTTL
	t.stats.Responded++
	d.Responded = true
	d.ISN = respISN(t.pol.Seed, k)
}

// check verifies the table's structure: the index holds exactly one entry
// for each live slot of the ring's used window, under its tuple's hash, and
// besides those only stale entries — numbers that have left the window —
// as many as the table counts, fewer than purgeEvery. Every entry, stale ones
// included, is reachable from its home without crossing an empty entry.
func (tb *table) check() error {
	if tb.used > len(tb.slots) || tb.head >= len(tb.slots) {
		return fmt.Errorf("ring head %d used %d of %d slots", tb.head, tb.used, len(tb.slots))
	}
	live := 0
	for n := 0; n < tb.used; n++ {
		pos := (tb.head + n) % len(tb.slots)
		s := tb.slots[pos]
		if !s.live {
			continue
		}
		live++
		if got, _ := tb.find(s.k, tb.hash(s.k)); got != pos {
			return fmt.Errorf("live slot %d (%+v) found at %d", pos, s.k, got)
		}
	}
	if live != tb.live {
		return fmt.Errorf("%d live slots in the ring, live = %d", live, tb.live)
	}
	named, stale := make(map[int]bool), 0
	for i, e := range tb.index {
		if e == 0 {
			continue
		}
		for j := uint32(e>>32) >> tb.shift; j != uint32(i); j = (j + 1) & tb.mask {
			if tb.index[j] == 0 {
				return fmt.Errorf("index[%d] is cut off from its home by an empty entry at %d", i, j)
			}
		}
		pos, ok := tb.slot(uint32(e))
		if !ok {
			stale++
			continue
		}
		if !tb.slots[pos].live || named[pos] {
			return fmt.Errorf("index[%d] names slot %d, not a live one or named twice", i, pos)
		}
		named[pos] = true
		if tag := tb.hash(tb.slots[pos].k) | 1; uint32(e>>32) != tag {
			return fmt.Errorf("index[%d] tag %#x, slot %d hashes to %#x", i, uint32(e>>32), pos, tag)
		}
	}
	if len(named) != live {
		return fmt.Errorf("%d index entries for %d live slots", len(named), live)
	}
	if stale != tb.stale || stale >= tb.purgeEvery {
		return fmt.Errorf("%d stale entries, counted %d, a purge at %d", stale, tb.stale, tb.purgeEvery)
	}
	return nil
}

// bytes is what the table holds allocated.
func (tb *table) bytes() uintptr {
	return uintptr(cap(tb.slots))*unsafe.Sizeof(slot{}) + uintptr(cap(tb.index))*8
}

// probes returns how many index entries find reads to reach k.
func (tb *table) probes(k tuple) int {
	tag := tb.hash(k)
	_, at := tb.find(k, tag)
	return int((at-tag>>tb.shift)&tb.mask) + 1
}

// differ runs one stream through the table-backed responder and the oracle
// and fails on any difference the repaired defects do not account for. Until
// the oracle deletes an invitation by expiry every Disposition, ISN
// included, must be identical; from the packet after that deletion on, the
// two may disagree only on whether a non-SYN segment still belongs to a live
// invitation — what is answered, with what, and every drop decided by the
// passive telescope stay identical. The table's structure is checked along
// the way. It reports whether the stream stayed in the identical regime.
func differ(t testing.TB, pol Policy, stream []packet.Probe) (identical bool) {
	t.Helper()
	got, want := New(passive(t), pol), newMapResponder(passive(t), pol)
	for i := range stream {
		p, q := stream[i], stream[i]
		parted := want.lapsed > 0
		d, w := got.Observe(&p), want.Observe(&q)
		same := reflect.DeepEqual(d, w)
		phase2Only := !d.Responded && !w.Responded && d.Phase != 1 && w.Phase != 1 &&
			(d.Phase == 2 || d.Reason == telescope.DropNotSYN) && (w.Phase == 2 || w.Reason == telescope.DropNotSYN)
		if !same && !(parted && phase2Only) {
			t.Fatalf("packet %d (%+v, oracle lapsed %d before it):\n table  %+v\n oracle %+v", i, stream[i], want.lapsed, d, w)
		}
		if got.inv.live > got.pol.MaxState || got.inv.used > got.pol.MaxState {
			t.Fatalf("packet %d: %d live, %d used slots over MaxState %d", i, got.inv.live, got.inv.used, got.pol.MaxState)
		}
		if i%64 == 0 || i == len(stream)-1 {
			if err := got.inv.check(); err != nil {
				t.Fatalf("packet %d: %v", i, err)
			}
		}
	}
	gs, ws := got.Stats(), want.stats
	if want.lapsed == 0 {
		if gs != ws {
			t.Fatalf("stats: table %+v, oracle %+v", gs, ws)
		}
		if a, b := got.Base().Stats(), want.Base().Stats(); a != b {
			t.Fatalf("telescope stats: table %+v, oracle %+v", a, b)
		}
	} else if gs.Responded != ws.Responded || gs.RateLimited != ws.RateLimited || gs.PolicyDenied != ws.PolicyDenied {
		t.Fatalf("responder decisions: table %+v, oracle %+v", gs, ws)
	}
	return want.lapsed == 0
}

// randomStream draws n packets over a pool of tuples a few times MaxState
// wide, so the table runs full and evicting and tuples are re-invited: SYNs,
// bare ACKs, payload pushes and resets on pool tuples, SYN-ACK backscatter, UDP, and
// destinations the telescope does not monitor. lateShare is the share of
// non-SYN segments allowed to arrive after their invitation's deadline.
func randomStream(r *rand.Rand, tel *telescope.Telescope, n, pool int, ttl int64, lateShare float64) []packet.Probe {
	tuples := make([]packet.Probe, pool)
	invited := make([]int64, pool) // time of the tuple's last SYN; -1 for none
	for i := range tuples {
		tuples[i] = packet.Probe{
			Src: 0xC0A80000 + uint32(r.Intn(pool/2+1)), Dst: tel.At(r.Intn(tel.Size())),
			SrcPort: uint16(1024 + r.Intn(4)), DstPort: []uint16{80, 443, 8080, 22}[r.Intn(4)], TTL: 64,
		}
		invited[i] = -1
	}
	out := make([]packet.Probe, 0, n)
	now := int64(0)
	for len(out) < n {
		now += int64(r.Intn(int(ttl/8 + 2)))
		i := r.Intn(pool)
		p := tuples[i]
		p.Time, p.Seq = now, r.Uint32()
		switch x := r.Intn(20); {
		case x < 9:
			p.Flags = packet.FlagSYN
			invited[i] = now
		case x < 17:
			if late := invited[i] >= 0 && now > invited[i]+ttl; late && r.Float64() >= lateShare {
				continue
			}
			switch {
			case x < 13:
				p.Flags = packet.FlagACK
			case x < 16:
				p.Flags, p.Payload = packet.FlagPSH|packet.FlagACK, []byte("GET /")
			default:
				p.Flags = packet.FlagRST
			}
		case x < 18:
			p.Flags = packet.FlagSYN | packet.FlagACK
		case x < 19:
			p.Proto = packet.ProtoUDP
		default:
			p.Dst = 0x08080808
			p.Flags = packet.FlagSYN
		}
		out = append(out, p)
	}
	return out
}

// TestTableMatchesMapOracle is the seeded differential test of the
// invitation table against the map + queue responder it replaced: small
// tables so eviction is constant, re-invitations, the rate limit and the
// allowlist on in part of the streams. Streams without a late segment must
// match the oracle bit for bit, final Stats included; the others may part
// from it only as differ allows.
func TestTableMatchesMapOracle(t *testing.T) {
	tel := passive(t)
	identical, parted := 0, 0
	for s := int64(0); s < 240; s++ {
		r := rand.New(rand.NewSource(s))
		pol := Policy{Seed: uint64(s) * 0x9e3779b97f4a7c15, MaxState: 8 << r.Intn(4), StateTTL: int64(1+r.Intn(50)) * 1e6}
		if s%3 == 1 {
			pol.RatePerSec, pol.Burst = 2000, 4
		}
		if s%4 == 2 {
			pol.Ports = []uint16{80, 443, 22}
		}
		late := 0.0
		if s%2 == 1 {
			late = 0.5
		}
		stream := randomStream(r, tel, 3000, pol.MaxState*(2+r.Intn(3)), pol.StateTTL, late)
		if differ(t, pol, stream) {
			identical++
		} else {
			parted++
		}
	}
	// Both regimes must have been exercised, or the test proves less than it says.
	if identical < 60 || parted < 60 {
		t.Fatalf("%d streams identical to the oracle, %d parted by an expiry deletion: want at least 60 of each", identical, parted)
	}
}

// FuzzInvitationTable drives the table through Observe with an op per input
// byte — invite or re-invite (evicting once the table is full), look up with
// an ACK or a payload push, let time pass so invitations expire — over 16
// tuples and a table of 1 to 8 slots, against the map oracle under differ's
// rule, checking the table's structure as it goes.
func FuzzInvitationTable(f *testing.F) {
	f.Add([]byte{3, 0x00, 0x01, 0x02, 0x03, 0x40, 0x41, 0xff, 0x40, 0x00, 0x04, 0x05, 0x42})
	f.Add([]byte{0, 0x00, 0x40, 0xc8, 0x40, 0x00, 0x01, 0x40, 0x41})
	f.Add([]byte{7, 0x00, 0x01, 0xd0, 0x40, 0x00, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x40, 0x41, 0x81})
	tel := passive(f)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		pol := Policy{Seed: uint64(ops[0]), MaxState: 1 + int(ops[0]&7), StateTTL: 1000}
		stream := make([]packet.Probe, 0, len(ops))
		now := int64(0)
		for _, op := range ops[1:] {
			p := packet.Probe{
				Time: now, Src: 0xC0A80001 + uint32(op&3), Dst: tel.At(int(op >> 2 & 3)),
				SrcPort: 4000, DstPort: 80, Seq: uint32(op), TTL: 64,
			}
			switch op >> 6 {
			case 0:
				p.Flags = packet.FlagSYN
			case 1:
				p.Flags = packet.FlagACK
			case 2:
				p.Flags, p.Payload = packet.FlagPSH|packet.FlagACK, []byte{op}
			default:
				now += int64(op&63) * 40 // up to 2.5 TTLs
				continue
			}
			now++
			stream = append(stream, p)
		}
		differ(t, pol, stream)
	})
}

// TestExpiryCyclesKeepMemoryBounded: a source that cycles SYN → wait out the
// TTL → ACK on a handful of tuples left one queue entry behind per cycle in
// the map + queue responder, which only popped its queue while the map was
// full — 12 bytes per cycle, for ever. In the ring a lapsed slot is reclaimed
// when the head reaches it, evicting nobody, and nothing is ever allocated.
func TestExpiryCyclesKeepMemoryBounded(t *testing.T) {
	tel := passive(t)
	rt := New(tel, Policy{Seed: 7, StateTTL: 10})
	before := rt.inv.bytes()
	const cycles = 200_000 // the default table's 65536 slots wrap three times
	cycle := func(i int) {
		p := syn(tel, int64(i)*100, 0xC0A80001, uint16(40000+i%4), 80)
		if d := rt.Observe(&p); !d.Responded {
			t.Fatalf("cycle %d: SYN not answered", i)
		}
		p.Time += 11
		p.Flags = packet.FlagACK
		if d := rt.Observe(&p); d.Phase != 0 {
			t.Fatalf("cycle %d: ACK past the deadline admitted: %+v", i, d)
		}
	}
	for i := 0; i < cycles; i++ {
		cycle(i)
	}
	if st := rt.Stats(); st.Expired != cycles || st.Evicted != 0 {
		t.Fatalf("stats %+v: want every invitation expired and nobody evicted", st)
	}
	if after := rt.inv.bytes(); after != before {
		t.Fatalf("table grew from %d to %d bytes", before, after)
	}
	if rt.inv.live != 0 || rt.inv.used > rt.pol.MaxState {
		t.Fatalf("%d live, %d used slots", rt.inv.live, rt.inv.used)
	}
	i := cycles
	if a := testing.AllocsPerRun(1000, func() { cycle(i); i++ }); a != 0 {
		t.Fatalf("%v allocations per expire/re-invite cycle", a)
	}
	// The oracle shows what this replaces: its queue keeps every cycle.
	or := newMapResponder(passive(t), Policy{Seed: 7, StateTTL: 10})
	for i := 0; i < 1000; i++ {
		p := syn(tel, int64(i)*100, 0xC0A80001, uint16(40000+i%4), 80)
		or.Observe(&p)
		p.Time += 11
		p.Flags = packet.FlagACK
		or.Observe(&p)
	}
	if len(or.queue)-or.qHead != 1000 || len(or.state) != 0 {
		t.Fatalf("oracle no longer shows the defect: queue %d, state %d", len(or.queue)-or.qHead, len(or.state))
	}
}

// TestReinvitedTupleKeepsItsTurn: an invitation that expired in place and was
// made again is as young as its second SYN. The map + queue responder evicted
// it at the turn of its first, ahead of older invitations, because the stale
// queue entry still named a tuple present in the map.
func TestReinvitedTupleKeepsItsTurn(t *testing.T) {
	run := func(observe func(*packet.Probe) Disposition, tel *telescope.Telescope) (aLive, bLive bool) {
		pkt := func(ts int64, sp uint16, flags uint8) Disposition {
			p := syn(tel, ts, 0xC0A80001, sp, 80)
			p.Flags = flags
			return observe(&p)
		}
		const a, b = 1, 2
		pkt(0, a, packet.FlagSYN)
		pkt(90, b, packet.FlagSYN)
		pkt(101, a, packet.FlagACK) // past a's deadline of 100: the invitation is deleted
		pkt(102, a, packet.FlagSYN) // and made again, now younger than b
		pkt(103, 3, packet.FlagSYN)
		pkt(104, 4, packet.FlagSYN) // four live invitations: b, a, 3, 4
		pkt(105, 5, packet.FlagSYN) // one must go, and b is the oldest
		return pkt(110, a, packet.FlagACK).Phase == 2, pkt(110, b, packet.FlagACK).Phase == 2
	}
	pol := Policy{Seed: 7, MaxState: 4, StateTTL: 100}
	tel := passive(t)
	rt := New(tel, pol)
	if a, b := run(rt.Observe, tel); !a || b {
		t.Fatalf("re-invited tuple live %v, older tuple live %v: want the older one evicted", a, b)
	}
	if st := rt.Stats(); st.Evicted != 1 || st.Expired != 1 {
		t.Fatalf("stats %+v", st)
	}
	tel = passive(t)
	if a, b := run(newMapResponder(tel, pol).Observe, tel); a || !b {
		t.Fatalf("oracle no longer shows the defect: re-invited live %v, older live %v", a, b)
	}
}

// TestSeededHashBoundsCraftedRuns: 512 tuples chosen so that, for seed 0,
// they all hash to one index position do build one long probe run in a
// seed-0 table — the attack is real when the seed is known — and scatter
// under any other seed.
func TestSeededHashBoundsCraftedRuns(t *testing.T) {
	const capacity, crafted = 4096, 512
	known := newTable(capacity, 0)
	var tuples []tuple
	for i := uint32(0); len(tuples) < crafted; i++ {
		k := tuple{src: 0xC0A80001, dst: 0x0A010005, sp: uint16(i >> 16), dp: uint16(i)}
		if known.hash(k)>>known.shift == 1234 {
			tuples = append(tuples, k)
		}
	}
	longest := func(seed uint64) int {
		tb := newTable(capacity, seed)
		for _, k := range tuples {
			tb.invite(k, 0)
		}
		if err := tb.check(); err != nil {
			t.Fatal(err)
		}
		max := 0
		for _, k := range tuples {
			if n := tb.probes(k); n > max {
				max = n
			}
		}
		return max
	}
	if n := longest(0); n < crafted {
		t.Fatalf("seed 0: longest probe run %d, the crafted tuples should share one of %d", n, crafted)
	}
	for _, seed := range []uint64{1, 7, 0xdeadbeef, 1 << 63} {
		if n := longest(seed); n > 8 {
			t.Fatalf("seed %#x: crafted tuples still build a probe run of %d", seed, n)
		}
	}
}

// TestAllocBudgetObserve is the enforced budget for the responder: with the
// table full and evicting on every invitation — the state a busy telescope
// is in for the whole capture — Observe allocates nothing, for SYNs, live
// and late phase-two segments alike. Reported under "reactive-observe".
func TestAllocBudgetObserve(t *testing.T) {
	tel := passive(t)
	rt := New(tel, Policy{Seed: 7, MaxState: 64, StateTTL: 2000})
	probes := make([]packet.Probe, 0, 1024)
	for i := 0; len(probes) < cap(probes); i++ {
		p := syn(tel, int64(i)*10, 0xC0A80000+uint32(i), uint16(i), 80)
		probes = append(probes, p)
		p.Flags = packet.FlagACK
		switch i % 4 {
		case 1: // claimed in time
			p.Time += 5
			p.Payload = []byte("GET /")
			probes = append(probes, p)
		case 2: // claimed too late
			p.Time += 2001
			probes = append(probes, p)
		}
	}
	round := int64(0)
	alloctest.Check(t, "reactive-observe", 0, func() {
		for i := range probes {
			p := probes[i]
			p.Time += round
			rt.Observe(&p)
		}
		round += int64(len(probes)) * 10
	})
	if st := rt.Stats(); st.Evicted == 0 || st.Expired == 0 || st.Payloads == 0 {
		t.Fatalf("the measured path did not evict, expire and admit: %+v", st)
	}
}
