package analysis

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/synscan/synscan/internal/collab"
	"github.com/synscan/synscan/internal/tools"
	"github.com/synscan/synscan/internal/workload"
)

func TestSec54CountryStructure(t *testing.T) {
	r16 := Sec54(yearData(t, 2016))
	r22 := Sec54(yearData(t, 2022))
	if len(r16.TopCountries) < 5 {
		t.Fatalf("too few countries: %d", len(r16.TopCountries))
	}
	// 2016: China leads the origin ranking (paper: >30% early on).
	if r16.TopCountries[0].Country != "CN" {
		t.Fatalf("2016 top origin = %s, want CN", r16.TopCountries[0].Country)
	}
	// Diversification: China's share shrinks by 2022.
	cnShare := func(r *Sec54Result) float64 {
		for _, cs := range r.TopCountries {
			if cs.Country == "CN" {
				return cs.Share
			}
		}
		return 0
	}
	if cnShare(r22) >= cnShare(r16) {
		t.Fatalf("CN share must decline: 2016=%v 2022=%v", cnShare(r16), cnShare(r22))
	}
	// Headline biases: 3389 predominantly Chinese, 443 US-heavy.
	leads := func(r *Sec54Result, port uint16) string {
		origins := r.PortOrigins[port]
		if len(origins) == 0 {
			return ""
		}
		return origins[0].Country
	}
	// RDP checked in 2020 where it is a headline port with real volume
	// (Table 1: 3389 draws 26% of 2020 traffic).
	if got := leads(Sec54(yearData(t, 2020)), 3389); got != "CN" {
		t.Fatalf("2020 RDP origin lead = %q, want CN", got)
	}
	if got := leads(r22, 443); got != "US" {
		t.Fatalf("2022 HTTPS origin lead = %q, want US", got)
	}
	// Shares are normalized.
	sum := 0.0
	for _, cs := range r22.TopCountries {
		sum += cs.Share
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("country shares sum to %v", sum)
	}
	// Dominated-port counts exist and CN leads them.
	if len(r22.DominatedPorts) == 0 {
		t.Fatal("no dominated ports found")
	}
}

func TestInstitutionalBias(t *testing.T) {
	res := InstitutionalBias(yearData(t, 2023), 5)
	// Appendix A: institutional/known scanners are ~half the 2023 traffic.
	if res.InstPacketShare < 0.25 {
		t.Fatalf("2023 institutional share = %v, want large", res.InstPacketShare)
	}
	if len(res.TopPortsRaw) != 5 || len(res.TopPortsFiltered) != 5 {
		t.Fatal("rankings missing")
	}
	// Early years: much smaller bias.
	early := InstitutionalBias(yearData(t, 2015), 5)
	if early.InstPacketShare >= res.InstPacketShare {
		t.Fatalf("institutional bias must grow: 2015=%v 2023=%v",
			early.InstPacketShare, res.InstPacketShare)
	}
}

func TestBlockableShareTrajectory(t *testing.T) {
	b17 := Blockable(yearData(t, 2017))
	b20 := Blockable(yearData(t, 2020))
	b24 := Blockable(yearData(t, 2024))
	for _, b := range []*BlockableResult{b17, b20, b24} {
		if b.Share <= 0 || b.Share > 1 {
			t.Fatalf("blockable share %v outside (0, 1]", b.Share)
		}
	}
	// §7: 92.1% of 2020 traffic from 4 known tools; by 2024 under 40%.
	if b20.Share < 0.55 {
		t.Fatalf("2020 blockable share = %v, want high", b20.Share)
	}
	if b24.Share >= b20.Share {
		t.Fatalf("blockable share must collapse by 2024: 2020=%v 2024=%v",
			b20.Share, b24.Share)
	}
	if b24.Share > 0.55 {
		t.Fatalf("2024 blockable share = %v, want < 0.55", b24.Share)
	}
	// Mirai visible in 2017's identifiable traffic.
	if b17.PerTool[tools.ToolMirai] <= 0 {
		t.Fatal("2017 must have Mirai-identifiable traffic")
	}
	// Shares are consistent.
	sum := 0.0
	for _, s := range b20.PerTool {
		sum += s
	}
	if diff := sum - b20.Share; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("per-tool sum %v != share %v", sum, b20.Share)
	}
}

func TestBlocklistDecay(t *testing.T) {
	t.Parallel()
	s, err := workload.NewScenario(workload.Config{
		Year: 2022, Seed: testSeed, Scale: testScale, TelescopeSize: testTelSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := BlocklistDecay(s)
	if res.Weeks < 4 {
		t.Fatalf("weeks = %d", res.Weeks)
	}
	if res.HitRate[0] != 1 {
		t.Fatalf("live feed hit rate = %v, want 1", res.HitRate[0])
	}
	// Coverage must decay substantially within the first weeks.
	if res.HitRate[1] >= 0.95 {
		t.Fatalf("1-week-old list still covers %v", res.HitRate[1])
	}
	if res.HitRate[3] >= res.HitRate[1] {
		t.Fatalf("no decay: week1=%v week3=%v", res.HitRate[1], res.HitRate[3])
	}
	// Institutional sources remain covered (they rescan from stable IPs).
	if res.InstHitRate[2] < 0.7 {
		t.Fatalf("institutional hit rate at 2 weeks = %v, want high", res.InstHitRate[2])
	}
	if res.InstHitRate[2] <= res.HitRate[2] {
		t.Fatal("institutional coverage must exceed overall coverage")
	}
}

func TestCollabOnSimulatedYear(t *testing.T) {
	// 2022: CollabShare 0.25 — sharded scans must be reconstructable.
	yd := yearData(t, 2022)
	groups := collab.Detect(yd.QualifiedScans(), collab.Config{})
	st := collab.Summarize(groups)
	if st.RawScans == 0 || st.LogicalScans == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Collaborative == 0 {
		t.Fatal("2022 must contain detectable collaborative scans")
	}
	if st.InflationFactor <= 1 {
		t.Fatalf("inflation factor = %v, want > 1", st.InflationFactor)
	}
	// 2015: collaboration nearly absent — inflation close to 1.
	st15 := collab.Summarize(collab.Detect(yearData(t, 2015).QualifiedScans(), collab.Config{}))
	if st15.InflationFactor >= st.InflationFactor {
		t.Fatalf("collaboration must grow: 2015=%v 2022=%v",
			st15.InflationFactor, st.InflationFactor)
	}
}

func TestCompareVantage(t *testing.T) {
	t.Parallel()
	res, err := CompareVantage(2020, testSeed, testScale, testTelSize, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Two same-sized vantages see comparable volumes and campaign counts.
	if res.PacketRatio < 0.8 || res.PacketRatio > 1.25 {
		t.Fatalf("packet ratio = %v", res.PacketRatio)
	}
	if res.ScanRatio < 0.8 || res.ScanRatio > 1.25 {
		t.Fatalf("scan ratio = %v", res.ScanRatio)
	}
	// The big targets agree across vantages.
	if res.TopPortOverlap < 0.4 {
		t.Fatalf("top-port overlap = %v", res.TopPortOverlap)
	}
	// Speed distributions are statistically indistinguishable.
	if !res.SpeedKS.SameDistribution(0.01) {
		t.Fatalf("speed distributions diverge: %+v", res.SpeedKS)
	}
}

func TestSketchedMatchesExact(t *testing.T) {
	t.Parallel()
	mk := func() (*workload.Scenario, error) {
		return workload.NewScenario(workload.Config{
			Year: 2020, Seed: testSeed, Scale: testScale, TelescopeSize: testTelSize,
		})
	}
	sa, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	exact := Collect(sa, CollectConfig{})
	sb, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	sk := Sketched(sb, 10)

	if sk.AcceptedPackets != exact.AcceptedPackets {
		t.Fatalf("accepted: sketched %d != exact %d", sk.AcceptedPackets, exact.AcceptedPackets)
	}
	// HLL within 3% of the exact distinct-source count.
	rel := float64(sk.DistinctSources)/float64(len(exact.PortsPerSource)) - 1
	if rel > 0.03 || rel < -0.03 {
		t.Fatalf("distinct sources: sketched %d vs exact %d (%.2f%%)",
			sk.DistinctSources, len(exact.PortsPerSource), rel*100)
	}
	// Top-10 by packets: at least 8 of 10 ports agree (Space-Saving gives
	// upper bounds; near-ties may swap).
	exactTop := map[uint16]bool{}
	for _, ps := range topShares(exact.PacketsPerPort, 10) {
		exactTop[ps.Port] = true
	}
	match := 0
	for _, ps := range sk.TopPortsByPackets {
		if exactTop[ps.Port] {
			match++
		}
	}
	if match < 8 {
		t.Fatalf("top-10 overlap = %d/10 (sketched %+v)", match, sk.TopPortsByPackets)
	}
}

// evaluationJSON is the encoding of the first evaluation a test computed.
// TestFullEvaluationJSON and TestEvaluationCSVExport both compute the same
// one, so whichever runs second checks that a fixed seed reproduces the
// report byte for byte.
var (
	evaluationMu   sync.Mutex
	evaluationJSON []byte
)

func encodeEvaluation(t *testing.T, ev *Evaluation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ev.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	evaluationMu.Lock()
	defer evaluationMu.Unlock()
	if evaluationJSON == nil {
		evaluationJSON = buf.Bytes()
	} else if !bytes.Equal(buf.Bytes(), evaluationJSON) {
		t.Fatal("two evaluations of one seed encode to different bytes")
	}
	return buf.Bytes()
}

func TestFullEvaluationJSON(t *testing.T) {
	t.Parallel()
	ev, err := Evaluate(Input{Seed: testSeed, Scale: 0.0002, TelescopeSize: testTelSize}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Table1) != 10 || len(ev.Table2) != 5 || len(ev.Sec51) != 10 {
		t.Fatalf("evaluation incomplete: %d/%d/%d", len(ev.Table1), len(ev.Table2), len(ev.Sec51))
	}
	if ev.Figure1 == nil || ev.Blocklist == nil || len(ev.Figure8) == 0 {
		t.Fatal("missing figure results")
	}
	encoded := encodeEvaluation(t, ev)
	// The JSON must be parseable and carry readable enum keys.
	var round map[string]interface{}
	if err := json.Unmarshal(encoded, &round); err != nil {
		t.Fatal(err)
	}
	s := string(encoded)
	for _, want := range []string{"table1", "Institutional", "ZMap", "blocklist_2022"} {
		if !strings.Contains(s, want) {
			t.Fatalf("JSON missing %q", want)
		}
	}
}

func TestFigure1MultiEvents(t *testing.T) {
	t.Parallel()
	// Five disclosures on distinct quiet ports, staggered through the
	// window — the paper's Figure 1 overlays ten such events.
	var events []workload.Disclosure
	for i := 0; i < 5; i++ {
		events = append(events, workload.Disclosure{
			Day:        6 + 5*i,
			Port:       uint16(40000 + i),
			PeakPerDay: 50000,
			DecayDays:  4,
		})
	}
	res, err := Figure1Multi(testSeed, testScale, testTelSize, 2019, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 5 {
		t.Fatalf("%d events traced", len(res.Events))
	}
	for i, ev := range res.Events {
		if ev.PeakFactor < 3 {
			t.Fatalf("event %d: no surge (peak %v)", i, ev.PeakFactor)
		}
		if ev.PeakDay < events[i].Day || ev.PeakDay > events[i].Day+7 {
			t.Fatalf("event %d: peak day %d, want near %d", i, ev.PeakDay, events[i].Day)
		}
	}
	if !res.AllDecayed {
		t.Fatal("some event did not decay back to baseline")
	}
	if res.MeanPeakFactor < 3 {
		t.Fatalf("mean peak %v", res.MeanPeakFactor)
	}
}

func TestZMapDailySurge(t *testing.T) {
	// §4.1: the minimum daily ZMap scan count in 2024 exceeds the 2023
	// maximum — the surge is a landscape shift, not one campaign.
	d23 := ZMapDaily(campaigns(t, 2023))
	d24 := ZMapDaily(campaigns(t, 2024))
	if len(d24.PerDay) != 59 {
		t.Fatalf("2024 days = %d", len(d24.PerDay))
	}
	if d24.Max == 0 {
		t.Fatal("no ZMap campaigns in 2024")
	}
	// Paper scale: min(2024) = 17,122 > max(2023) = 9,051, i.e. the daily
	// averages differ by well over 2x. Daily minima/maxima are Poisson-
	// noisy at simulation scale, so assert the mean ratio.
	if d24.Mean < 2*d23.Mean {
		t.Fatalf("2024 daily mean (%.1f) must be >= 2x 2023's (%.1f)",
			d24.Mean, d23.Mean)
	}
}

func TestSec42Normalized(t *testing.T) {
	rows := Sec42Normalized(yearData(t, 2024))
	if len(rows) < 10 {
		t.Fatalf("too few countries: %d", len(rows))
	}
	byC := map[string]NormalizedOrigin{}
	for _, r := range rows {
		byC[r.Country] = r
		if r.Intensity <= 0 || r.AddressShare <= 0 {
			t.Fatalf("bad row: %+v", r)
		}
	}
	nl, ok := byC["NL"]
	if !ok {
		t.Fatal("NL missing")
	}
	// §4.2: normalized by address space, the Netherlands stands out while
	// the historically dominant origins do not.
	if nl.Intensity < 1.5 {
		t.Fatalf("NL intensity = %v, want outlier", nl.Intensity)
	}
	if us := byC["US"]; us.Intensity > nl.Intensity {
		t.Fatalf("US intensity %v should not exceed NL %v once normalized",
			us.Intensity, nl.Intensity)
	}
	// Sorted by intensity descending.
	for i := 1; i < len(rows); i++ {
		if rows[i].Intensity > rows[i-1].Intensity {
			t.Fatal("rows not sorted")
		}
	}
}

func TestEvaluationCSVExport(t *testing.T) {
	t.Parallel()
	ev, err := Evaluate(Input{Seed: testSeed, Scale: 0.0002, TelescopeSize: testTelSize}, nil)
	if err != nil {
		t.Fatal(err)
	}
	encodeEvaluation(t, ev)
	dir := t.TempDir()
	if err := ev.WriteCSVDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1.csv", "table2.csv", "figure1.csv",
		"figure3.csv", "figure8.csv", "sec51.csv", "sec63.csv", "blocklist.csv", "collab.csv"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Count(string(b), "\n")
		if lines < 2 {
			t.Fatalf("%s has only %d lines", name, lines)
		}
	}
	// CSVFiles names exactly the files written: the ten series families.
	entries, _ := os.ReadDir(dir)
	named := CSVFiles(ev)
	if len(entries) != len(named) || len(named) != 10 {
		t.Fatalf("wrote %d files, CSVFiles names %d, want 10", len(entries), len(named))
	}
	for _, name := range named {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("CSVFiles names %s: %v", name, err)
		}
	}
	// table1.csv carries the decade: header + 10 rows.
	b, _ := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if got := strings.Count(string(b), "\n"); got != 11 {
		t.Fatalf("table1.csv rows = %d, want 11", got)
	}
}
