package analysis

import (
	"sort"
	"sync"
	"testing"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/tools"
	"github.com/synscan/synscan/internal/workload"
)

const (
	testScale   = 0.001
	testTelSize = 2048
	testSeed    = 7
)

var (
	decadeOnce sync.Once
	decadeData []*YearData
)

// decade lazily collects all ten years once for the whole test binary.
func decade(t testing.TB) []*YearData {
	t.Helper()
	decadeOnce.Do(func() {
		var err error
		decadeData, err = Decade(testSeed, testScale, testTelSize, CollectConfig{})
		if err != nil {
			panic(err)
		}
	})
	return decadeData
}

// mergeOrdered is c with its campaigns, origins alongside, sorted into the
// sharded detector's merge order (End, Start, Src): the order an archive
// written by `syningest -workers N` (N > 1) holds and `syneval -archive`
// reads back, where collection gives close order.
func mergeOrdered(c *Campaigns) *Campaigns {
	idx := make([]int, len(c.Scans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		a, b := c.Scans[idx[i]], c.Scans[idx[j]]
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Src < b.Src
	})
	out := *c
	out.Scans = make([]*core.Scan, len(idx))
	out.ScanOrigins = make([]enrich.Origin, len(idx))
	for i, k := range idx {
		out.Scans[i], out.ScanOrigins[i] = c.Scans[k], c.ScanOrigins[k]
	}
	return &out
}

// table1 is the decade's Table 1 at the paper's ranking depth, computed once.
var (
	table1Once sync.Once
	table1Rows []Table1Row
)

func table1(t testing.TB) []Table1Row {
	table1Once.Do(func() { table1Rows = Table1(decade(t), 5) })
	return table1Rows
}

func yearData(t testing.TB, year int) *YearData {
	for _, yd := range decade(t) {
		if yd.Year == year {
			return yd
		}
	}
	t.Fatalf("year %d not collected", year)
	return nil
}

func campaigns(t testing.TB, year int) *Campaigns { return &yearData(t, year).Campaigns }

func TestCollectBasics(t *testing.T) {
	yd := yearData(t, 2020)
	if yd.AcceptedPackets == 0 {
		t.Fatal("no packets accepted")
	}
	if len(yd.PortsPerSource) == 0 {
		t.Fatal("no sources")
	}
	if len(yd.Scans) == 0 || len(yd.Scans) != len(yd.ScanOrigins) {
		t.Fatalf("scans/origins mismatch: %d vs %d", len(yd.Scans), len(yd.ScanOrigins))
	}
	if yd.TelescopeStats.NotSYN == 0 {
		t.Fatal("backscatter should have been dropped")
	}
	var sum uint64
	for _, v := range yd.PacketsPerDay {
		sum += v
	}
	if sum != yd.AcceptedPackets {
		t.Fatalf("per-day sum %d != accepted %d", sum, yd.AcceptedPackets)
	}
	if got := yd.PacketsPerPort.Total(); got != yd.AcceptedPackets {
		t.Fatalf("per-port sum %d != accepted %d", got, yd.AcceptedPackets)
	}
}

func TestTable1GrowthShape(t *testing.T) {
	rows := table1(t)
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	// ~30-fold packet growth (wide tolerance at test scale).
	growth := last.PacketsPerDay / first.PacketsPerDay
	if growth < 10 || growth > 60 {
		t.Fatalf("packet growth = %.1f, want ~30x", growth)
	}
	// Scan count grows even faster than packets (§4.1).
	scanGrowth := last.ScansPerMonth / first.ScansPerMonth
	if scanGrowth < 15 {
		t.Fatalf("scan growth = %.1f, want >> 10x", scanGrowth)
	}
	// Monotone-ish rise in the 2015→2020 era.
	if rows[5].PacketsPerDay < rows[0].PacketsPerDay*5 {
		t.Fatal("2020 must dwarf 2015")
	}
}

func TestTable1ToolShares(t *testing.T) {
	rows := table1(t)
	byYear := map[int]Table1Row{}
	for _, r := range rows {
		byYear[r.Year] = r
	}
	// 2015: NMap is the leading identified tool, ZMap small.
	r15 := byYear[2015]
	if r15.ToolShares[tools.ToolNMap] < 0.1 {
		t.Fatalf("2015 NMap share = %v, want > 0.1", r15.ToolShares[tools.ToolNMap])
	}
	// 2017: Mirai dominates scans.
	r17 := byYear[2017]
	if r17.ToolShares[tools.ToolMirai] < 0.25 {
		t.Fatalf("2017 Mirai share = %v", r17.ToolShares[tools.ToolMirai])
	}
	// 2018-2021: Masscan prominent.
	if byYear[2019].ToolShares[tools.ToolMasscan] < 0.10 {
		t.Fatalf("2019 Masscan share = %v", byYear[2019].ToolShares[tools.ToolMasscan])
	}
	// 2024: ZMap dominates scans; NMap and Masscan near zero.
	r24 := byYear[2024]
	if r24.ToolShares[tools.ToolZMap] < 0.3 {
		t.Fatalf("2024 ZMap share = %v", r24.ToolShares[tools.ToolZMap])
	}
	if r24.ToolShares[tools.ToolNMap] > 0.02 || r24.ToolShares[tools.ToolMasscan] > 0.05 {
		t.Fatalf("2024 legacy tools too present: %+v", r24.ToolShares)
	}
}

func TestTable1TopPorts(t *testing.T) {
	rows := table1(t)
	for _, r := range rows {
		if len(r.TopPortsByPackets) == 0 || len(r.TopPortsBySources) == 0 || len(r.TopPortsByScans) == 0 {
			t.Fatalf("year %d: empty rankings", r.Year)
		}
		for _, ps := range r.TopPortsByPackets {
			if ps.Share <= 0 || ps.Share > 1 {
				t.Fatalf("year %d: bad share %v", r.Year, ps.Share)
			}
		}
	}
	// 2017 must be IoT-flavored: 7547 or 2323 among top scan ports.
	var r17 Table1Row
	for _, r := range rows {
		if r.Year == 2017 {
			r17 = r
		}
	}
	found := false
	for _, ps := range r17.TopPortsByScans {
		if ps.Port == 7547 || ps.Port == 2323 || ps.Port == 5358 {
			found = true
		}
	}
	if !found {
		t.Fatalf("2017 top scan ports lack IoT targets: %+v", r17.TopPortsByScans)
	}
	// 80/8080 lead the by-sources ranking in 2019-2022 (Table 1).
	for _, r := range rows {
		if r.Year < 2019 || r.Year > 2022 {
			continue
		}
		top2 := map[uint16]bool{r.TopPortsBySources[0].Port: true, r.TopPortsBySources[1].Port: true}
		if !top2[80] && !top2[8080] {
			t.Fatalf("year %d: by-sources top2 = %+v, want web ports", r.Year, r.TopPortsBySources[:2])
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2([]*YearData{yearData(t, 2022)})
	byType := map[inetmodel.ScannerType]Table2Row{}
	var srcSum, scanSum, pktSum float64
	for _, r := range rows {
		byType[r.Type] = r
		srcSum += r.Sources
		scanSum += r.Scans
		pktSum += r.Packets
	}
	if srcSum < 0.999 || srcSum > 1.001 || scanSum < 0.999 || scanSum > 1.001 || pktSum < 0.999 || pktSum > 1.001 {
		t.Fatalf("shares must each sum to 1: %v %v %v", srcSum, scanSum, pktSum)
	}
	inst := byType[inetmodel.TypeInstitutional]
	res := byType[inetmodel.TypeResidential]
	// Institutional: tiny source share, outsized packet share (Table 2:
	// 0.16% of sources, 32.63% of packets).
	if inst.Sources > 0.05 {
		t.Fatalf("institutional source share = %v, want tiny", inst.Sources)
	}
	if inst.Packets < 0.15 {
		t.Fatalf("institutional packet share = %v, want large", inst.Packets)
	}
	if inst.Packets < inst.Sources*10 {
		t.Fatal("institutional packets/sources asymmetry missing")
	}
	// Residential: majority of sources.
	if res.Sources < 0.35 {
		t.Fatalf("residential source share = %v", res.Sources)
	}
}

func TestFigure1DisclosureDecay(t *testing.T) {
	t.Parallel()
	ev := workload.Disclosure{Day: 12, Port: 9898, PeakPerDay: 60000, DecayDays: 4}
	res, err := Figure1(testSeed, testScale, testTelSize, 2019, ev)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakDay < ev.Day || res.PeakDay > ev.Day+6 {
		t.Fatalf("peak at day %d, want near %d", res.PeakDay, ev.Day)
	}
	if res.PeakFactor < 3 {
		t.Fatalf("peak factor %v, want a clear surge", res.PeakFactor)
	}
	// Activity at the end of the window back near baseline.
	tail := res.RelativeActivity[len(res.RelativeActivity)-7:]
	for _, v := range tail {
		if v > res.PeakFactor/3 {
			t.Fatalf("activity did not decay: tail %v vs peak %v", v, res.PeakFactor)
		}
	}
	// KS confirms the return to the pre-event distribution.
	if !res.KS.SameDistribution(0.01) {
		t.Fatalf("KS rejects return to baseline: %+v", res.KS)
	}
}

func TestFigure2Volatility(t *testing.T) {
	res := Figure2(yearData(t, 2020))
	if len(res.PacketRatios) == 0 || len(res.SourceRatios) == 0 {
		t.Fatal("no weekly ratios")
	}
	// The ecosystem is volatile: a large share of blocks changes >= 2x
	// week-over-week (paper: > 50%).
	if res.PacketsTwofold < 0.25 {
		t.Fatalf("packets twofold share = %v, want substantial volatility", res.PacketsTwofold)
	}
	// But a stable core exists too.
	if res.Stable <= 0 {
		t.Fatal("no stable blocks at all")
	}
	for _, r := range res.PacketRatios {
		if r < 1 {
			t.Fatalf("ratios must be >= 1: %v", r)
		}
	}
}

func TestFigure3SinglePortDecline(t *testing.T) {
	f15 := Figure3(yearData(t, 2015))
	f22 := Figure3(yearData(t, 2022))
	if f15.SinglePortShare < 0.6 {
		t.Fatalf("2015 single-port share = %v, want ~0.83", f15.SinglePortShare)
	}
	if f22.SinglePortShare >= f15.SinglePortShare {
		t.Fatalf("single-port share must decline: 2015=%v 2022=%v",
			f15.SinglePortShare, f22.SinglePortShare)
	}
	if f22.FivePlusShare <= f15.FivePlusShare {
		t.Fatalf("5+-port share must rise: 2015=%v 2022=%v",
			f15.FivePlusShare, f22.FivePlusShare)
	}
	if f15.ECDF.Len() == 0 {
		t.Fatal("empty CDF")
	}
}

func TestFigure4ToolMix(t *testing.T) {
	ports := Figure4(yearData(t, 2020), 10)
	if len(ports) != 10 {
		t.Fatalf("%d ports", len(ports))
	}
	for _, fp := range ports {
		sum := 0.0
		for _, s := range fp.ToolShare {
			if s < 0 || s > 1 {
				t.Fatalf("port %d: share %v", fp.Port, s)
			}
			sum += s
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("port %d: shares sum to %v", fp.Port, sum)
		}
	}
	// 2017: Mirai heavy on its IoT ports.
	ports17 := Figure4(yearData(t, 2017), 10)
	miraiSeen := false
	for _, fp := range ports17 {
		if fp.ToolShare[tools.ToolMirai] > 0.3 {
			miraiSeen = true
		}
	}
	if !miraiSeen {
		t.Fatal("2017 top ports show no Mirai-dominated traffic")
	}
}

func TestFigure5TypeShares(t *testing.T) {
	rows := Figure5(campaigns(t, 2022), 15)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	instSomewhere := false
	for _, fp := range rows {
		sum := 0.0
		for _, s := range fp.TypeShare {
			sum += s
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("port %d: type shares sum to %v", fp.Port, sum)
		}
		if fp.TypeShare[inetmodel.TypeInstitutional] > 0.2 {
			instSomewhere = true
		}
	}
	if !instSomewhere {
		t.Fatal("institutional scanners should dominate some ports")
	}
}

func TestFigure6Recurrence(t *testing.T) {
	res := Figure6([]*Campaigns{campaigns(t, 2022)})
	inst := res.ScansPerSource[inetmodel.TypeInstitutional]
	resi := res.ScansPerSource[inetmodel.TypeResidential]
	if len(inst) == 0 || len(resi) == 0 {
		t.Fatal("missing recurrence samples")
	}
	meanOf := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if meanOf(inst) < meanOf(resi)*3 {
		t.Fatalf("institutional sources must recur far more: inst=%v resi=%v",
			meanOf(inst), meanOf(resi))
	}
	// Institutional downtime concentrates at ~1 day (§6.6). The per-type
	// *mode share* comparison is unstable at test scale (non-institutional
	// returnees are a handful of sources, and sub-12h gaps are censored by
	// the detector expiry), so the distinguishing §6.6 assertion is the
	// recurrence-count asymmetry above plus the institutional mode here.
	if instMode := res.DailyModeShare[inetmodel.TypeInstitutional]; instMode < 0.3 {
		t.Fatalf("institutional daily mode = %v", instMode)
	}
	// Non-institutional sources must rarely recur at all.
	recurShare := func(t2 inetmodel.ScannerType) float64 {
		multi := 0
		for _, n := range res.ScansPerSource[t2] {
			if n > 1 {
				multi++
			}
		}
		if len(res.ScansPerSource[t2]) == 0 {
			return 0
		}
		return float64(multi) / float64(len(res.ScansPerSource[t2]))
	}
	if rs, is := recurShare(inetmodel.TypeResidential), recurShare(inetmodel.TypeInstitutional); rs >= is {
		t.Fatalf("residential recurrence %v >= institutional %v", rs, is)
	}
}

func TestFigure7SpeedByType(t *testing.T) {
	rows := Figure7(campaigns(t, 2022))
	byType := map[inetmodel.ScannerType]Figure7Row{}
	for _, r := range rows {
		byType[r.Type] = r
	}
	inst, okI := byType[inetmodel.TypeInstitutional]
	res, okR := byType[inetmodel.TypeResidential]
	if !okI || !okR {
		t.Fatal("missing type rows")
	}
	// §6.8: institutional scanning is orders of magnitude faster.
	if inst.MeanSpeedPPS < res.MeanSpeedPPS*5 {
		t.Fatalf("institutional speed %v vs residential %v", inst.MeanSpeedPPS, res.MeanSpeedPPS)
	}
	if inst.Above1000PPS < res.Above1000PPS {
		t.Fatal("institutional >1000pps share must exceed residential")
	}
}

// orgCoverage is Figure 8 for one year at the scale the coverage tests use,
// simulated once per year for the whole test binary.
var (
	orgCoverageMu   sync.Mutex
	orgCoverageRows = map[int][]Figure8Row{}
)

func orgCoverage(t *testing.T, year int) []Figure8Row {
	t.Helper()
	orgCoverageMu.Lock()
	defer orgCoverageMu.Unlock()
	if orgCoverageRows[year] == nil {
		s, err := workload.NewScenario(workload.Config{
			Year: year, Seed: testSeed, Scale: 0.003, TelescopeSize: testTelSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		orgCoverageRows[year] = Figure8(s)
	}
	return orgCoverageRows[year]
}

func TestFigure8InstitutionalCoverage(t *testing.T) {
	t.Parallel()
	rows := orgCoverage(t, 2024)
	if len(rows) < 15 {
		t.Fatalf("only %d orgs observed", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if a, b := rows[i-1], rows[i]; a.PortsCovered < b.PortsCovered || a.PortsCovered == b.PortsCovered && a.Org >= b.Org {
			t.Fatalf("rows %d, %d out of order: %s %d, %s %d", i-1, i, a.Org, a.PortsCovered, b.Org, b.PortsCovered)
		}
	}
	cov := map[string]Figure8Row{}
	for _, r := range rows {
		cov[r.Org] = r
	}
	// Full-range scanners in 2024.
	for _, name := range []string{"Censys", "Palo Alto Networks"} {
		if c := cov[name]; c.PortsCovered < 60000 {
			t.Errorf("%s covered %d ports, want near-full range", name, c.PortsCovered)
		}
	}
	// Partial scanners stay partial.
	if c := cov["Rapid7"]; c.PortsCovered == 0 || c.PortsCovered > 10000 {
		t.Errorf("Rapid7 covered %d ports, want partial", c.PortsCovered)
	}
	// Universities scan only a handful of ports.
	if c := cov["TU Munich"]; c.Packets > 0 && c.PortsCovered > 64 {
		t.Errorf("TU Munich covered %d ports, want few", c.PortsCovered)
	}
	// Ranking: first row must be a full-range org.
	if !rows[0].FullRange {
		t.Errorf("top org %s not full range (%d)", rows[0].Org, rows[0].PortsCovered)
	}
}

func TestFigure910OnypheGrowth(t *testing.T) {
	t.Parallel()
	rows := Figure910(orgCoverage(t, 2023), orgCoverage(t, 2024))
	if len(rows) < 10 {
		t.Fatalf("only %d orgs compared", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.Ports2024 < b.Ports2024 || a.Ports2024 == b.Ports2024 && a.Org >= b.Org {
			t.Fatalf("rows %d, %d out of order: %+v, %+v", i-1, i, a, b)
		}
	}
	var onyphe Figure910Row
	for _, r := range rows {
		if r.Org == "Onyphe" {
			onyphe = r
		}
	}
	if onyphe.Org == "" {
		t.Fatal("Onyphe missing")
	}
	// §6.8: Onyphe scaled from under half the range to the full range.
	if onyphe.Ports2023 >= 40000 {
		t.Fatalf("Onyphe 2023 = %d ports, want < 40000", onyphe.Ports2023)
	}
	if onyphe.Ports2024 < 55000 {
		t.Fatalf("Onyphe 2024 = %d ports, want near-full", onyphe.Ports2024)
	}
	if onyphe.Ports2024 <= onyphe.Ports2023 {
		t.Fatal("Onyphe must grow")
	}
}

func TestSec51(t *testing.T) {
	svc := inetmodel.NewServiceModel(testSeed)
	r15 := Sec51(yearData(t, 2015), svc, testSeed)
	r22 := Sec51(yearData(t, 2022), svc, testSeed)
	if r22.PrivilegedCoverage <= r15.PrivilegedCoverage {
		t.Fatalf("privileged coverage must rise: 2015=%v 2022=%v",
			r15.PrivilegedCoverage, r22.PrivilegedCoverage)
	}
	if r22.CoScan80_8080 <= r15.CoScan80_8080 {
		t.Fatalf("80/8080 co-scanning must rise: 2015=%v 2022=%v",
			r15.CoScan80_8080, r22.CoScan80_8080)
	}
	// No correlation between services and scan intensity.
	if r22.ServicesScansR.R > 0.2 || r22.ServicesScansR.R < -0.2 {
		t.Fatalf("services/scans correlation = %v, want ~0", r22.ServicesScansR.R)
	}
	// Cross-year 3+-port trend is positive and strong.
	var all []*Sec51Result
	for _, yd := range decade(t) {
		all = append(all, Sec51(yd, svc, testSeed))
	}
	trend, err := ThreePlusTrend(all)
	if err != nil {
		t.Fatal(err)
	}
	if trend.R < 0.5 {
		t.Fatalf("3+-port trend R = %v, want strongly positive", trend.R)
	}
}

func TestSec52Verticals(t *testing.T) {
	r15 := Sec52(campaigns(t, 2015))
	r20 := Sec52(campaigns(t, 2020))
	if r20.Over10000 <= r15.Over10000 {
		t.Fatalf("vertical scans must rise 2015→2020: %d vs %d",
			r15.Over10000, r20.Over10000)
	}
	if r20.LargestPortCount < 10000 {
		t.Fatalf("2020 largest scan covers %d ports", r20.LargestPortCount)
	}
	// Big-port scans are much faster than the average (§5.2).
	if r20.Over1000 > 0 && r20.MeanSpeedOver1000Mbps < r20.MeanSpeedAllMbps {
		t.Fatalf("vertical scans should be faster: %v vs %v",
			r20.MeanSpeedOver1000Mbps, r20.MeanSpeedAllMbps)
	}
}

func TestSec63Speeds(t *testing.T) {
	r20 := Sec63(campaigns(t, 2020))
	mirai := r20.MedianPPS[tools.ToolMirai]
	zmap := r20.MedianPPS[tools.ToolZMap]
	if mirai == 0 || zmap == 0 {
		t.Fatalf("missing tool speeds: %+v", r20.MedianPPS)
	}
	// Mirai (embedded devices) slowest; ZMap fastest (§6.3).
	if mirai > zmap {
		t.Fatalf("Mirai %v faster than ZMap %v", mirai, zmap)
	}
	if r20.Top100MeanPPS < r20.OverallMedianPPS {
		t.Fatal("top-100 mean must exceed the overall median")
	}
	// NMap is comparable to Masscan on average (§6.3's curious finding);
	// at test scale NMap has only a handful of campaigns, so allow wide
	// sampling noise around the configured medians (12k vs 8k pps).
	nmap, masscan := r20.MedianPPS[tools.ToolNMap], r20.MedianPPS[tools.ToolMasscan]
	if nmap > 0 && masscan > 0 && nmap < masscan*0.35 {
		t.Fatalf("NMap %v should be comparable or faster than Masscan %v", nmap, masscan)
	}
	// Top-end speeds rise across the decade.
	var all []*Sec63Result
	for _, yd := range decade(t) {
		all = append(all, Sec63(&yd.Campaigns))
	}
	trend, err := Top100Trend(all)
	if err != nil {
		t.Fatal(err)
	}
	if trend.R < 0 {
		t.Fatalf("top-100 speed trend R = %v, want positive", trend.R)
	}
}

func TestSpeedPortsCorrelation(t *testing.T) {
	res, err := SpeedPortsCorrelation(campaigns(t, 2020))
	if err != nil {
		t.Fatal(err)
	}
	if res.N == 0 || res.R <= 0 {
		t.Fatalf("speed/ports correlation = %v over %d campaigns, want positive (§5.3)", res.R, res.N)
	}
}

func TestSec64CoverageModes(t *testing.T) {
	res := Sec64(campaigns(t, 2024), tools.ToolZMap)
	if res.Tool != tools.ToolZMap {
		t.Fatalf("result names tool %v, want ZMap", res.Tool)
	}
	// Any tool can be asked for; the result names the one it was.
	if m := Sec64(campaigns(t, 2022), tools.ToolMasscan); m.Tool != tools.ToolMasscan {
		t.Fatalf("Masscan result names tool %v", m.Tool)
	}
	if len(res.Coverages) == 0 {
		t.Fatal("no ZMap campaigns in 2024")
	}
	if res.ModeCount == 0 {
		t.Fatal("no coverage mode found")
	}
	for _, c := range res.Coverages {
		if c < 0 || c > 1 {
			t.Fatalf("coverage %v out of range", c)
		}
	}
}
