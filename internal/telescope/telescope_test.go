package telescope

import (
	"sort"
	"strings"
	"testing"

	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/rng"
)

func small(t *testing.T) *Telescope {
	t.Helper()
	tel, err := New(Config{
		Blocks: []PartialBlock{
			{Prefix: inetmodel.MustPrefix("10.1.0.0/20"), MonitoredFraction: 0.5},
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tel
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no blocks should error")
	}
	bad := Config{Blocks: []PartialBlock{{Prefix: inetmodel.MustPrefix("10.0.0.0/24"), MonitoredFraction: 1.5}}}
	if _, err := New(bad); err == nil {
		t.Fatal("fraction > 1 should error")
	}
	bad.Blocks[0].MonitoredFraction = 0
	if _, err := New(bad); err == nil {
		t.Fatal("fraction 0 should error")
	}
}

// TestNewRejectsOverlappingBlocks: two blocks sharing addresses would list
// the shared ones twice in At/Size and leave Contains to whichever block it
// tried first.
func TestNewRejectsOverlappingBlocks(t *testing.T) {
	for _, pair := range [][2]string{
		{"10.0.0.0/16", "10.0.4.0/24"}, // nested
		{"10.0.4.0/24", "10.0.0.0/16"}, // nested, the wider one second
		{"10.0.0.0/24", "10.0.0.0/24"}, // the same block twice
	} {
		_, err := New(Config{Blocks: []PartialBlock{
			{Prefix: inetmodel.MustPrefix("192.0.2.0/24"), MonitoredFraction: 1},
			{Prefix: inetmodel.MustPrefix(pair[0]), MonitoredFraction: 0.5},
			{Prefix: inetmodel.MustPrefix(pair[1]), MonitoredFraction: 0.5},
		}})
		if err == nil || !strings.Contains(err.Error(), "overlap") {
			t.Fatalf("blocks %v: err = %v, want an overlap error", pair, err)
		}
	}
}

// TestContainsExhaustive checks the per-block bitmaps against the sorted
// address list At and Size serve, by binary search, for every address of
// every block and the addresses either side of it.
func TestContainsExhaustive(t *testing.T) {
	one := func(prefix string, fraction float64) Config {
		return Config{Blocks: []PartialBlock{{Prefix: inetmodel.MustPrefix(prefix), MonitoredFraction: fraction}}, Seed: 3}
	}
	for name, cfg := range map[string]Config{
		"paper":       PaperConfig(1),
		"scaled-4096": ScaledConfig(9, 4096),
		"/20":         one("10.1.0.0/20", 0.5),
		"/32":         one("10.1.2.3/32", 1),
		"top of the space": {Blocks: []PartialBlock{
			{Prefix: inetmodel.MustPrefix("255.255.255.0/24"), MonitoredFraction: 0.3},
			{Prefix: inetmodel.MustPrefix("0.0.0.0/24"), MonitoredFraction: 0.3},
		}},
	} {
		tel, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		listed := func(ip uint32) bool {
			i := sort.Search(tel.Size(), func(j int) bool { return tel.At(j) >= ip })
			return i < tel.Size() && tel.At(i) == ip
		}
		monitored := 0
		for _, b := range cfg.Blocks {
			// One address before the block to one after it; the arithmetic
			// wraps at both ends of the address space, as Contains' must.
			for n, ip := uint64(0), b.Prefix.First()-1; n < b.Prefix.Size()+2; n, ip = n+1, ip+1 {
				got := tel.Contains(ip)
				if got != listed(ip) {
					t.Fatalf("%s: Contains(%s) = %v, the address list says %v", name, packet.FormatIPv4(ip), got, !got)
				}
				if got && b.Prefix.Contains(ip) {
					monitored++
				}
			}
		}
		if monitored != tel.Size() {
			t.Fatalf("%s: %d monitored addresses inside the blocks, Size() = %d", name, monitored, tel.Size())
		}
	}
}

func TestMembershipExactCount(t *testing.T) {
	tel := small(t)
	if got, want := tel.Size(), 2048; got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	// Every monitored address is inside the block, sorted, unique.
	prefix := inetmodel.MustPrefix("10.1.0.0/20")
	var prev uint32
	for i := 0; i < tel.Size(); i++ {
		a := tel.At(i)
		if !prefix.Contains(a) {
			t.Fatalf("address %s outside block", packet.FormatIPv4(a))
		}
		if i > 0 && a <= prev {
			t.Fatal("addresses not strictly ascending")
		}
		prev = a
		if !tel.Contains(a) {
			t.Fatal("Contains(At(i)) must hold")
		}
	}
	if tel.Contains(0x0B000000) {
		t.Fatal("address outside all blocks reported monitored")
	}
}

func TestMembershipDeterministic(t *testing.T) {
	cfg := Config{
		Blocks: []PartialBlock{{Prefix: inetmodel.MustPrefix("10.9.0.0/22"), MonitoredFraction: 0.3}},
		Seed:   7,
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != b.Size() {
		t.Fatal("sizes differ")
	}
	for i := 0; i < a.Size(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatal("membership differs for same seed")
		}
	}
}

func TestPaperConfigSize(t *testing.T) {
	tel, err := New(PaperConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// §3.2: on average 71,536 unrouted addresses monitored.
	if got := tel.Size(); got != 71536 {
		t.Fatalf("paper telescope size = %d, want 71536", got)
	}
}

func TestScaledConfig(t *testing.T) {
	tel, err := New(ScaledConfig(1, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.Size(); got < 4090 || got > 4102 {
		t.Fatalf("scaled size = %d, want ~4096", got)
	}
}

// TestScaledConfigClampsFractions: asking for more addresses than the
// paper's proportions can deliver must clamp every block's fraction into
// the documented (0, 1] contract instead of producing fractions > 1 that
// New rejects (pre-fix, any approxSize above ~196k broke the constructor).
func TestScaledConfigClampsFractions(t *testing.T) {
	// Three /16 blocks hold at most 3*65536 addresses; ask for far more.
	cfg := ScaledConfig(1, 1<<20)
	total := 0.0
	for _, b := range cfg.Blocks {
		if b.MonitoredFraction <= 0 || b.MonitoredFraction > 1 {
			t.Fatalf("block %v fraction %v out of (0,1]", b.Prefix, b.MonitoredFraction)
		}
		total += b.MonitoredFraction * float64(b.Prefix.Size())
	}
	tel, err := New(cfg)
	if err != nil {
		t.Fatalf("over-scaled config must stay constructible: %v", err)
	}
	// Saturated: every block fully monitored.
	if want := 3 * 65536; tel.Size() != want {
		t.Fatalf("saturated size = %d, want %d", tel.Size(), want)
	}
	// Moderate over-scaling clamps only the blocks that overflow.
	cfg = ScaledConfig(1, 150000)
	for _, b := range cfg.Blocks {
		if b.MonitoredFraction <= 0 || b.MonitoredFraction > 1 {
			t.Fatalf("block %v fraction %v out of (0,1]", b.Prefix, b.MonitoredFraction)
		}
	}
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestObserveFiltering(t *testing.T) {
	tel := small(t)
	tel.BlockPort(23)
	monitored := tel.At(0)

	cases := []struct {
		name  string
		probe packet.Probe
		want  DropReason
	}{
		{"accepted", packet.Probe{Dst: monitored, DstPort: 80, Flags: packet.FlagSYN}, Accepted},
		{"outside", packet.Probe{Dst: 0x0B000000, DstPort: 80, Flags: packet.FlagSYN}, DropNotMonitored},
		{"synack", packet.Probe{Dst: monitored, DstPort: 80, Flags: packet.FlagSYN | packet.FlagACK}, DropNotSYN},
		{"rst", packet.Probe{Dst: monitored, DstPort: 80, Flags: packet.FlagRST}, DropNotSYN},
		{"policy", packet.Probe{Dst: monitored, DstPort: 23, Flags: packet.FlagSYN}, DropPolicy},
		{"bad-time", packet.Probe{Time: -1, Dst: monitored, DstPort: 80, Flags: packet.FlagSYN}, DropBadTime},
	}
	for _, c := range cases {
		p := c.probe
		if got := tel.Observe(&p); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
	s := tel.Stats()
	if s.Accepted != 1 || s.NotMonitored != 1 || s.NotSYN != 2 || s.Policy != 1 || s.BadTime != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.Total() != 6 {
		t.Fatalf("Total = %d", s.Total())
	}
}

func TestObserveOutage(t *testing.T) {
	tel := small(t)
	tel.AddOutage(100, 200)
	tel.AddOutage(200, 100) // inverted: ignored
	monitored := tel.At(0)
	p := packet.Probe{Time: 150, Dst: monitored, DstPort: 80, Flags: packet.FlagSYN}
	if got := tel.Observe(&p); got != DropOutage {
		t.Fatalf("in-outage packet: %v", got)
	}
	p.Time = 200 // boundary: outage is [from, to)
	if got := tel.Observe(&p); got != Accepted {
		t.Fatalf("post-outage packet: %v", got)
	}
	if s := tel.Stats(); s.Outage != 1 {
		t.Fatalf("outage count %d", s.Outage)
	}
}

func TestPortBlockedViaConfig(t *testing.T) {
	tel, err := New(Config{
		Blocks:       []PartialBlock{{Prefix: inetmodel.MustPrefix("10.0.0.0/24"), MonitoredFraction: 1}},
		Seed:         1,
		BlockedPorts: []uint16{23, 445},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tel.PortBlocked(23) || !tel.PortBlocked(445) || tel.PortBlocked(80) {
		t.Fatal("blocked-port set wrong")
	}
}

// TestPaperConfigIngressPolicy: PaperConfig must carry the §3.2 ingress
// policy — ports 23 and 445 dropped from PolicyEpoch (2017-01-01) on, and
// *only* from then on. Before the fix the constructor left BlockedPorts
// empty, so paper-config telescopes never enforced the policy at all.
func TestPaperConfigIngressPolicy(t *testing.T) {
	cfg := PaperConfig(3)
	if len(cfg.BlockedPorts) == 0 || cfg.PolicyFrom != PolicyEpoch {
		t.Fatalf("PaperConfig lacks the ingress policy: %+v", cfg)
	}
	tel, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	monitored := tel.At(0)
	probe := func(ts int64, port uint16) packet.Probe {
		return packet.Probe{Time: ts, Dst: monitored, DstPort: port, Flags: packet.FlagSYN}
	}
	cases := []struct {
		name string
		p    packet.Probe
		want DropReason
	}{
		{"telnet-2015", probe(PolicyEpoch-2*365*24*3600*1e9, 23), Accepted},
		{"smb-pre-epoch", probe(PolicyEpoch-1, 445), Accepted},
		{"telnet-at-epoch", probe(PolicyEpoch, 23), DropPolicy},
		{"smb-2018", probe(PolicyEpoch+365*24*3600*1e9, 445), DropPolicy},
		{"http-2018", probe(PolicyEpoch+365*24*3600*1e9, 80), Accepted},
	}
	for _, c := range cases {
		p := c.p
		if got := tel.Observe(&p); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
	if s := tel.Stats(); s.Policy != 2 || s.Accepted != 3 {
		t.Fatalf("stats %+v", s)
	}
}

// TestCheckIsPure: Check must never move a counter; Observe = Check+Record.
func TestCheckIsPure(t *testing.T) {
	tel := small(t)
	p := packet.Probe{Dst: tel.At(0), DstPort: 80, Flags: packet.FlagSYN}
	for i := 0; i < 3; i++ {
		if got := tel.Check(&p); got != Accepted {
			t.Fatalf("Check = %v", got)
		}
	}
	if s := tel.Stats(); s.Total() != 0 {
		t.Fatalf("Check moved counters: %+v", s)
	}
	tel.Record(Accepted)
	if s := tel.Stats(); s.Accepted != 1 {
		t.Fatalf("Record missed: %+v", s)
	}
}

func TestDropReasonString(t *testing.T) {
	want := map[DropReason]string{
		Accepted: "accepted", DropNotMonitored: "not-monitored",
		DropNotSYN: "not-syn", DropPolicy: "policy", DropOutage: "outage",
		DropBadTime: "bad-time", DropReason(99): "invalid",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q", r, r.String())
		}
	}
}

func TestFullBlockMonitored(t *testing.T) {
	tel, err := New(Config{
		Blocks: []PartialBlock{{Prefix: inetmodel.MustPrefix("192.0.2.0/24"), MonitoredFraction: 1}},
		Seed:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tel.Size() != 256 {
		t.Fatalf("Size = %d", tel.Size())
	}
	for ip := uint32(0xC0000200); ip <= 0xC00002FF; ip++ {
		if !tel.Contains(ip) {
			t.Fatalf("fully monitored block missing %s", packet.FormatIPv4(ip))
		}
	}
}

// containsMix is the address mix BenchmarkContains asks about: 4 096
// addresses, shuffled, three quarters inside one of cfg's blocks (monitored
// or not, as the block's fraction has it), a quarter drawn from all of IPv4.
func containsMix(cfg Config) []uint32 {
	r := rng.New(1)
	ips := make([]uint32, 4096)
	for i := range ips {
		ips[i] = r.Uint32()
		if i%4 != 0 {
			ips[i] = cfg.Blocks[i%len(cfg.Blocks)].Prefix.Base | ips[i]&0xffff
		}
	}
	return ips
}

// TestContainsMix: the benchmark's mix asks about monitored and unmonitored
// addresses of every block, so it times both answers of the in-block lookup
// and not only the range miss. The benchmark's own check needs a whole pass,
// which a one-iteration smoke run never makes.
func TestContainsMix(t *testing.T) {
	cfg := PaperConfig(1)
	tel, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := make([]int, len(cfg.Blocks)), make([]int, len(cfg.Blocks))
	for _, ip := range containsMix(cfg) {
		for b, blk := range cfg.Blocks {
			if !blk.Prefix.Contains(ip) {
				continue
			}
			if tel.Contains(ip) {
				hits[b]++
			} else {
				misses[b]++
			}
		}
	}
	for b, blk := range cfg.Blocks {
		if hits[b] == 0 || misses[b] == 0 {
			t.Errorf("%s: %d monitored and %d unmonitored addresses asked about, want both",
				blk.Prefix, hits[b], misses[b])
		}
	}
}

// BenchmarkContains is the micro-view of the stage ledger's
// telescope.observe_ns_per_pkt: membership in the paper's three /16 blocks
// for containsMix's addresses.
func BenchmarkContains(b *testing.B) {
	cfg := PaperConfig(1)
	tel, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ips := containsMix(cfg)
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tel.Contains(ips[i%len(ips)]) {
			hits++
		}
	}
	if b.N >= len(ips) && hits == 0 {
		b.Fatal("no address was monitored")
	}
}
