package fingerprint

import (
	"testing"

	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
)

// runCampaign feeds n probes from the given tool through a Votes tally.
func runCampaign(tool tools.Tool, n int, seed uint64) *Votes {
	r := rng.New(seed)
	pr := tools.NewProber(tool, 0x0A000001, r.Derive("prober"))
	tr := r.Derive("targets")
	var v Votes
	for i := 0; i < n; i++ {
		p := pr.Probe(tr.Uint32(), uint16(80+tr.Intn(3)))
		v.Add(&p)
	}
	return &v
}

func TestClassifyEachTool(t *testing.T) {
	cases := []struct {
		tool tools.Tool
		want tools.Tool
	}{
		{tools.ToolZMap, tools.ToolZMap},
		{tools.ToolMasscan, tools.ToolMasscan},
		{tools.ToolNMap, tools.ToolNMap},
		{tools.ToolMirai, tools.ToolMirai},
		{tools.ToolUnicorn, tools.ToolUnicorn},
		{tools.ToolCustom, tools.ToolCustom},
	}
	for _, c := range cases {
		for seed := uint64(1); seed <= 5; seed++ {
			v := runCampaign(c.tool, 200, seed)
			if got := v.Classify(); got != c.want {
				t.Errorf("seed %d: campaign from %v classified as %v (votes %+v)",
					seed, c.tool, got, v)
			}
		}
	}
}

func TestClassifySmallCampaigns(t *testing.T) {
	// Even two-probe campaigns from pairwise-fingerprinted tools classify.
	for _, tool := range []tools.Tool{tools.ToolNMap, tools.ToolUnicorn} {
		v := runCampaign(tool, 2, 3)
		if got := v.Classify(); got != tool {
			t.Errorf("2-probe %v campaign classified as %v", tool, got)
		}
	}
	// A single probe from a per-packet tool still classifies.
	v := runCampaign(tools.ToolZMap, 1, 3)
	if got := v.Classify(); got != tools.ToolZMap {
		t.Errorf("1-probe ZMap classified as %v", got)
	}
	// No packets at all.
	var empty Votes
	if got := empty.Classify(); got != tools.ToolUnknown {
		t.Errorf("empty votes classified as %v", got)
	}
}

func TestPerPacketTests(t *testing.T) {
	p := packet.Probe{Dst: 0x01020304, DstPort: 80, Seq: 0x01020304, IPID: tools.ZMapIPID}
	if !IsZMap(&p) || !IsMirai(&p) {
		t.Fatal("constructed probe must match ZMap and Mirai tests")
	}
	p.IPID = uint16(p.Dst ^ uint32(p.DstPort) ^ p.Seq)
	if !IsMasscan(&p) {
		t.Fatal("constructed probe must match Masscan test")
	}
	p.Seq = 0xdeadbeef
	if IsMirai(&p) {
		t.Fatal("Mirai test false positive")
	}
}

func TestPairTestsSymmetric(t *testing.T) {
	r := rng.New(9)
	n := tools.NewNMap(1, r.Derive("n"))
	a := n.Probe(100, 80)
	b := n.Probe(200, 443)
	if !PairNMap(&a, &b) || !PairNMap(&b, &a) {
		t.Fatal("PairNMap must be symmetric")
	}
	u := tools.NewUnicorn(1, r.Derive("u"))
	c := u.Probe(100, 80)
	d := u.Probe(200, 443)
	if !PairUnicorn(&c, &d) || !PairUnicorn(&d, &c) {
		t.Fatal("PairUnicorn must be symmetric")
	}
}

func TestConstantSeqNotNMap(t *testing.T) {
	// A degenerate scanner that reuses one sequence number forever must not
	// be classified as NMap (x == 0 satisfies the relation trivially).
	var v Votes
	r := rng.New(10)
	for i := 0; i < 100; i++ {
		p := packet.Probe{
			Dst: r.Uint32(), DstPort: 80, Seq: 0x12345678,
			IPID: uint16(r.Uint32()), SrcPort: 1000,
		}
		v.Add(&p)
	}
	if got := v.Classify(); got == tools.ToolNMap || got == tools.ToolUnicorn {
		t.Fatalf("constant-seq scanner classified as %v", got)
	}
}

func TestMixedTrafficMajority(t *testing.T) {
	// 80% masscan + 20% random: still classified masscan.
	r := rng.New(11)
	m := tools.NewMasscan(1, r.Derive("m"))
	c := tools.NewCustom(1, r.Derive("c"))
	var v Votes
	for i := 0; i < 500; i++ {
		var p packet.Probe
		if i%5 == 0 {
			p = c.Probe(r.Uint32(), 80)
		} else {
			p = m.Probe(r.Uint32(), 80)
		}
		v.Add(&p)
	}
	if got := v.Classify(); got != tools.ToolMasscan {
		t.Fatalf("80%% masscan stream classified as %v", got)
	}
}

func TestMerge(t *testing.T) {
	a := runCampaign(tools.ToolZMap, 100, 1)
	b := runCampaign(tools.ToolZMap, 50, 2)
	pk := a.Packets + b.Packets
	a.Merge(b)
	if a.Packets != pk {
		t.Fatalf("merged packets %d", a.Packets)
	}
	if got := a.Classify(); got != tools.ToolZMap {
		t.Fatalf("merged classification %v", got)
	}
}

func TestVotesCounts(t *testing.T) {
	v := runCampaign(tools.ToolMirai, 100, 4)
	if v.Packets != 100 {
		t.Fatalf("Packets = %d", v.Packets)
	}
	if v.Pairs != 99 {
		t.Fatalf("Pairs = %d", v.Pairs)
	}
	if v.Mirai != 100 {
		t.Fatalf("Mirai = %d, every probe should match", v.Mirai)
	}
}

func TestFalsePositiveRateOnRandomTraffic(t *testing.T) {
	// 50k random probes: per-packet 16-bit relations fire at ~2^-16.
	r := rng.New(12)
	zmap, masscan, mirai, nmap := 0, 0, 0, 0
	var prev packet.Probe
	for i := 0; i < 50000; i++ {
		p := packet.Probe{
			Dst: r.Uint32(), DstPort: uint16(r.Uint32()), Seq: r.Uint32(),
			IPID: uint16(r.Uint32()), SrcPort: uint16(r.Uint32()),
		}
		if IsZMap(&p) {
			zmap++
		}
		if IsMasscan(&p) {
			masscan++
		}
		if IsMirai(&p) {
			mirai++
		}
		if i > 0 && p.Seq != prev.Seq && PairNMap(&prev, &p) {
			nmap++
		}
		prev = p
	}
	if zmap > 10 || masscan > 10 || nmap > 10 {
		t.Fatalf("16-bit relations fire too often: zmap=%d masscan=%d nmap=%d", zmap, masscan, nmap)
	}
	if mirai > 1 {
		t.Fatalf("32-bit Mirai relation fired %d times", mirai)
	}
}

// TestAddBatchDropsPayloadHeader pins the aliasing rule of setPrev: the pair
// cache must not retain payload bytes (they may belong to a decoder or pooled
// batch buffer that is overwritten after the call). AddBatch is a loop over
// Add, so one entry point covers both.
func TestAddBatchDropsPayloadHeader(t *testing.T) {
	p := packet.Probe{Src: 1, Seq: 9, Payload: []byte("secret")}
	var v Votes
	v.Add(&p)
	if v.prev.Payload != nil {
		t.Fatal("pair cache retained a payload header")
	}
}

func BenchmarkVotesAdd(b *testing.B) {
	r := rng.New(1)
	pr := tools.NewMasscan(1, r)
	probes := make([]packet.Probe, 1024)
	for i := range probes {
		probes[i] = pr.Probe(uint32(i), 80)
	}
	var v Votes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Add(&probes[i&1023])
	}
}
