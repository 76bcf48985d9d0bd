package workload

import (
	"reflect"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/telescope"
	"github.com/synscan/synscan/internal/tools"
)

// sharedRegistry avoids rebuilding the synthetic Internet per test.
var sharedRegistry = inetmodel.BuildRegistry(1)

func testScenario(t testing.TB, year int, scale float64) *Scenario {
	t.Helper()
	s, err := NewScenario(Config{
		Year: year, Seed: 1, Scale: scale, TelescopeSize: 2048,
		Registry: sharedRegistry,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestProfileFor(t *testing.T) {
	for _, y := range Years() {
		p, err := ProfileFor(y)
		if err != nil {
			t.Fatalf("year %d: %v", y, err)
		}
		if p.Year != y || p.Days < 29 || p.Days > 61 {
			t.Fatalf("year %d profile: %+v", y, p)
		}
		if p.MeanPacketsPerScan <= 0 {
			t.Fatalf("year %d: MeanPacketsPerScan not derived", y)
		}
		total := 0.0
		for _, share := range p.ToolShares {
			total += share
		}
		if total > 1 {
			t.Fatalf("year %d: tool shares sum to %v > 1", y, total)
		}
	}
	if _, err := ProfileFor(2014); err == nil {
		t.Fatal("2014 must not have a profile")
	}
}

func TestProfileShapeTable1(t *testing.T) {
	// The 30-fold growth and the scan-count explosion must be encoded.
	p15, _ := ProfileFor(2015)
	p24, _ := ProfileFor(2024)
	if ratio := p24.PacketsPerDayM / p15.PacketsPerDayM; ratio < 28 || ratio > 35 {
		t.Fatalf("packet growth = %v, want ~31x", ratio)
	}
	if ratio := p24.ScansPerMonthK / p15.ScansPerMonthK; ratio < 35 || ratio > 45 {
		t.Fatalf("scan growth = %v, want ~39x", ratio)
	}
	// Mirai dominates 2017 scans; ZMap dominates 2024.
	p17, _ := ProfileFor(2017)
	if p17.ToolShares[tools.ToolMirai] < 0.4 {
		t.Fatal("2017 must be Mirai-dominated")
	}
	if p24.ToolShares[tools.ToolZMap] < 0.4 {
		t.Fatal("2024 must be ZMap-dominated")
	}
	// NMap fades from 31.7% to ~0.
	if p15.ToolShares[tools.ToolNMap] < 0.3 || p24.ToolShares[tools.ToolNMap] > 0.001 {
		t.Fatal("NMap trajectory wrong")
	}
}

func TestNewScenarioValidation(t *testing.T) {
	if _, err := NewScenario(Config{Year: 1999}); err == nil {
		t.Fatal("unknown year must error")
	}
	if _, err := NewScenario(Config{Year: 2020, Scale: -1}); err == nil {
		t.Fatal("negative scale must error")
	}
	if _, err := NewScenario(Config{Year: 2020, TelescopeSize: 10}); err == nil {
		t.Fatal("tiny telescope must error")
	}
}

// TestDetectorConfigIsScaledConfig: a scenario cuts campaigns with exactly the
// thresholds the replay tools derive for its telescope size, so a capture
// simulated by syntelescope yields the same campaigns when synalyze or
// syningest replay it. From 4,650 addresses up NewScenario used to round the
// destination floor half-up where core.ScaledConfig truncates (10,000
// addresses: 14 against 13).
func TestDetectorConfigIsScaledConfig(t *testing.T) {
	for _, tc := range []struct {
		size, minDsts int
		expiry        time.Duration
	}{
		{1024, 6, 12 * time.Hour},
		{2048, 6, 12 * time.Hour},
		{4096, 6, 12 * time.Hour},
		{10000, 13, 25752960 * time.Millisecond},
		{71536, 100, time.Hour},
	} {
		s, err := NewScenario(Config{Year: 2020, Seed: 1, Scale: 0.0001, TelescopeSize: tc.size, Registry: sharedRegistry})
		if err != nil {
			t.Fatal(err)
		}
		// The thresholds a detector runs with: zero fields take the defaults.
		effective := func(c core.Config) (int, time.Duration) {
			if c.Expiry == 0 {
				c.Expiry = core.DefaultExpiry
			}
			return c.MinDistinctDsts, time.Duration(c.Expiry)
		}
		dsts, expiry := effective(s.DetectorConfig)
		if wantDsts, wantExpiry := effective(core.ScaledConfig(tc.size)); dsts != wantDsts || expiry != wantExpiry {
			t.Errorf("size %d: %d destinations, %v expiry; core.ScaledConfig gives %d, %v",
				tc.size, dsts, expiry, wantDsts, wantExpiry)
		}
		if dsts != tc.minDsts || expiry != tc.expiry {
			t.Errorf("size %d: %d destinations, %v expiry; want %d, %v", tc.size, dsts, expiry, tc.minDsts, tc.expiry)
		}
	}
}

func TestScenarioDeterministic(t *testing.T) {
	collect := func() []packet.Probe {
		s := testScenario(t, 2016, 0.0004)
		var ps []packet.Probe
		s.Run(func(p *packet.Probe) { ps = append(ps, *p) })
		return ps
	}
	a := collect()
	b := collect()
	if len(a) != len(b) {
		t.Fatalf("probe counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("probe %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestRunTimeOrderedAndInWindow(t *testing.T) {
	s := testScenario(t, 2020, 0.0004)
	last := int64(0)
	n := 0
	s.Run(func(p *packet.Probe) {
		if p.Time < last {
			t.Fatalf("probe %d out of order: %d < %d", n, p.Time, last)
		}
		last = p.Time
		if p.Time < s.Start || p.Time > s.Start+s.WindowNanos+int64(1e9) {
			t.Fatalf("probe outside window: %d", p.Time)
		}
		n++
	})
	if n < 1000 {
		t.Fatalf("only %d probes generated", n)
	}
}

func TestRunSummary(t *testing.T) {
	s := testScenario(t, 2022, 0.0004)
	var n uint64
	sum := s.Run(func(*packet.Probe) { n++ })
	if sum.Probes != n {
		t.Fatalf("summary probes %d != emitted %d", sum.Probes, n)
	}
	if sum.Campaigns == 0 || sum.BackgroundSources == 0 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.InstitutionalProbes == 0 {
		t.Fatal("no institutional traffic generated")
	}
	// Institutional share should be near the profile's target (28% 2022).
	share := float64(sum.InstitutionalProbes) / float64(sum.Probes)
	if share < 0.1 || share > 0.5 {
		t.Fatalf("institutional share = %v, want ~0.28", share)
	}
}

func TestDetectorIntegration(t *testing.T) {
	s := testScenario(t, 2020, 0.0004)
	var scans []*core.Scan
	det := core.NewDetector(s.DetectorConfig, func(sc *core.Scan) { scans = append(scans, sc) })
	var accepted, dropped uint64
	s.Run(func(p *packet.Probe) {
		if s.Telescope.Observe(p) == telescope.Accepted {
			accepted++
			det.Ingest(p)
		} else {
			dropped++
		}
	})
	det.FlushAll()
	if accepted == 0 {
		t.Fatal("telescope accepted nothing")
	}
	if dropped == 0 {
		t.Fatal("backscatter/policy traffic must exist and be dropped")
	}
	qualified := 0
	toolSeen := map[tools.Tool]int{}
	for _, sc := range scans {
		if sc.Qualified {
			qualified++
			toolSeen[sc.Tool]++
		}
	}
	if qualified < 50 {
		t.Fatalf("only %d qualified campaigns", qualified)
	}
	// 2020: Masscan, ZMap, Mirai and custom all present.
	for _, tl := range []tools.Tool{tools.ToolMasscan, tools.ToolZMap, tools.ToolMirai, tools.ToolCustom} {
		if toolSeen[tl] == 0 {
			t.Errorf("no qualified %v campaigns (saw %v)", tl, toolSeen)
		}
	}
}

func TestBlockedPortsPolicy(t *testing.T) {
	// The ports are always in the policy set, but the drop is gated on the
	// deployment date: a 2017 window falls after telescope.PolicyEpoch,
	// a 2015 window before it.
	s := testScenario(t, 2017, 0.0004)
	if !s.Telescope.PortBlocked(23) || !s.Telescope.PortBlocked(445) {
		t.Fatal("telescope must carry 23/445 in the policy set")
	}
	probe := func(sc *Scenario, port uint16) packet.Probe {
		return packet.Probe{Time: sc.Start, Dst: sc.Telescope.At(0),
			DstPort: port, Flags: packet.FlagSYN}
	}
	p := probe(s, 23)
	if got := s.Telescope.Check(&p); got != telescope.DropPolicy {
		t.Fatalf("2017 port-23 probe: %v, want policy drop", got)
	}
	// 2015: policy not yet deployed, telnet probes pass.
	s15 := testScenario(t, 2015, 0.0004)
	p = probe(s15, 23)
	if got := s15.Telescope.Check(&p); got != telescope.Accepted {
		t.Fatalf("2015 port-23 probe: %v, want accepted", got)
	}
}

func TestDisclosureInjection(t *testing.T) {
	mk := func(disc []Disclosure) map[int]int {
		s, err := NewScenario(Config{
			Year: 2019, Seed: 2, Scale: 0.0004, TelescopeSize: 2048,
			Registry: sharedRegistry, Disclosures: disc,
		})
		if err != nil {
			t.Fatal(err)
		}
		perDay := map[int]int{}
		s.Run(func(p *packet.Probe) {
			if p.DstPort == 9999 {
				day := int((p.Time - s.Start) / int64(24*3600*1e9))
				perDay[day]++
			}
		})
		return perDay
	}
	baseline := mk(nil)
	event := mk([]Disclosure{{Day: 10, Port: 9999, PeakPerDay: 40000, DecayDays: 4}})
	if len(baseline) > 5 {
		t.Fatalf("port 9999 should be quiet at baseline: %v", baseline)
	}
	// Surge around day 10, decayed by day 40.
	surge := event[10] + event[11] + event[12]
	late := event[38] + event[39] + event[40]
	if surge == 0 {
		t.Fatal("no disclosure surge generated")
	}
	if late*5 > surge {
		t.Fatalf("disclosure interest did not decay: surge=%d late=%d", surge, late)
	}
}

func TestInstitutionalPortCoverage(t *testing.T) {
	// In 2024 the full-range orgs must cover (nearly) the whole port space.
	s := testScenario(t, 2024, 0.0008)
	censys, _ := s.Registry.OrgByName("Censys")
	var seen inetmodel.PortSet
	s.Run(func(p *packet.Probe) {
		if p.Src>>16 == uint32(censys.Block) {
			seen.Add(p.DstPort)
		}
	})
	if seen.Len() == 0 {
		t.Fatal("no Censys probes")
	}
	// Probes cycle the permuted port list without replacement, so coverage
	// equals min(probes, 65536); the budget should be big enough for a
	// large share even at test scale.
	if seen.Len() < 10000 {
		t.Fatalf("Censys covered only %d ports", seen.Len())
	}
}

func TestShardsSplitTargets(t *testing.T) {
	// Find a collaborative scan in 2022 (high CollabShare) and verify its
	// shards do not overlap destinations.
	s := testScenario(t, 2022, 0.0004)
	var collab []*spec
	for _, sp := range s.specs {
		if sp.kind == kindScan && sp.stride > 1 {
			collab = append(collab, sp)
		}
	}
	if len(collab) == 0 {
		t.Fatal("2022 scenario generated no collaborative shards")
	}
	// Group shards by shared permutation.
	byPerm := map[interface{}][]*spec{}
	for _, sp := range collab {
		byPerm[sp.perm] = append(byPerm[sp.perm], sp)
	}
	for _, group := range byPerm {
		if len(group) < 2 {
			continue
		}
		seen := map[uint32]bool{}
		for _, sp := range group {
			for i := 0; i < sp.count; i++ {
				// After a full cycle of the shared permutation the scan
				// revisits addresses by design; only the first cycle must
				// partition cleanly.
				if uint64(sp.strideOff+i*sp.stride) >= sp.perm.Len() {
					break
				}
				di := sp.perm.Apply(uint64(sp.strideOff + i*sp.stride))
				dst := s.Telescope.At(int(di))
				if seen[dst] {
					t.Fatal("shards overlap destinations")
				}
				seen[dst] = true
			}
		}
		return // one verified group is enough
	}
}

func TestYearsCoverAllProfiles(t *testing.T) {
	if len(Years()) != len(profiles) {
		t.Fatal("Years() out of sync with profiles map")
	}
}

// BenchmarkWorkloadGeneration2024 is the micro-view of the generator's part
// of the ingest workloads' set-up (setup_s): building a scenario and running
// it to the last probe, on the year with the most traffic.
func BenchmarkWorkloadGeneration2024(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := NewScenario(Config{
			Year: 2024, Seed: 1, Scale: 0.0004, TelescopeSize: 2048,
			Registry: sharedRegistry,
		})
		if err != nil {
			b.Fatal(err)
		}
		n := uint64(0)
		s.Run(func(*packet.Probe) { n++ })
		b.SetBytes(int64(n))
	}
}
