// Command syneval regenerates every table and figure of the paper's
// evaluation from the calibrated simulation: Table 1 and 2, Figures 1–10,
// and the §5/§6 scalar findings. The output is the text form recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	syneval                       # full evaluation at the default scale
//	syneval -scale 0.0005 -quick  # fast smoke evaluation
//	syneval -only table1,fig2     # selected experiments
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"github.com/synscan/synscan/internal/analysis"
	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/collab"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/report"
	"github.com/synscan/synscan/internal/stats"
	"github.com/synscan/synscan/internal/tools"
	"github.com/synscan/synscan/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("syneval: ")

	seed := flag.Uint64("seed", 1, "simulation seed")
	scale := flag.Float64("scale", 0.002, "volume scale relative to the paper")
	telSize := flag.Int("telescope", 4096, "monitored address count")
	workers := flag.Int("workers", 1, "campaign-detector shards per year; >1 runs detection on that many goroutines")
	archiveIn := flag.String("archive", "", "read detected campaigns from this archive instead of re-simulating (scan-level experiments only: "+strings.Join(scanLevel, ",")+")")
	archiveOut := flag.String("archive-out", "", "persist the simulated decade's detected campaigns (with origins) to this archive file")
	only := flag.String("only", "", "comma-separated experiment list (table1,table2,fig1..fig10,sec51..sec64,bias,blockable,blocklist,collab,vantage); empty = all")
	jsonOut := flag.String("json", "", "write the complete evaluation as JSON to this path (skips the text report)")
	csvDir := flag.String("csv", "", "write the evaluation's series as CSV files into this directory (skips the text report)")
	mdOut := flag.String("markdown", "", "write the evaluation as a Markdown document to this path (skips the text report)")
	metricsOut := flag.String("metrics", "", `write a final pipeline-metrics snapshot as JSON to this file ("-" = stdout)`)
	metricsEvery := flag.Duration("metrics-interval", 0, "periodically dump metrics to stderr at this interval (0 = off)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *workers < 1 {
		log.Fatalf("-workers must be at least 1, got %d", *workers)
	}
	if *archiveIn != "" && *archiveOut != "" {
		log.Fatal("-archive (read) and -archive-out (write) are mutually exclusive")
	}

	if *pprofAddr != "" {
		if err := obs.StartPprof(*pprofAddr); err != nil {
			log.Fatal(err)
		}
	}
	// One registry spans the whole decade: per-year pipelines aggregate into
	// it (each YearData additionally keeps its own snapshot). Nil when no
	// metrics sink was requested, which disables all instrumentation.
	var reg *obs.Registry
	if *metricsOut != "" || *metricsEvery > 0 {
		reg = obs.NewRegistry()
	}
	defer obs.StartDump(reg, os.Stderr, *metricsEvery)()
	cc := analysis.CollectConfig{Workers: *workers, Metrics: reg}
	dumpMetrics := func() {
		if *metricsOut == "" {
			return
		}
		if err := obs.WriteSnapshotFile(reg.Snapshot(), *metricsOut); err != nil {
			log.Fatal(err)
		}
	}

	if *jsonOut != "" || *csvDir != "" || *mdOut != "" {
		if *archiveIn != "" || *archiveOut != "" {
			log.Fatal("-archive/-archive-out are not supported with -json/-csv/-markdown (the full evaluation needs the raw probe stream)")
		}
		log.Printf("computing full evaluation (seed %d, scale %g, telescope %d)...", *seed, *scale, *telSize)
		ev, err := analysis.FullEvaluation(*seed, *scale, *telSize, cc)
		if err != nil {
			log.Fatal(err)
		}
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			if err := ev.WriteJSON(f); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote %s", *jsonOut)
		}
		if *csvDir != "" {
			if err := ev.WriteCSVDir(*csvDir); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote CSV series into %s", *csvDir)
		}
		if *mdOut != "" {
			f, err := os.Create(*mdOut)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			report.Markdown(f, ev)
			log.Printf("wrote %s", *mdOut)
		}
		dumpMetrics()
		return
	}

	want := map[string]bool{}
	for _, k := range strings.Split(*only, ",") {
		if k = strings.TrimSpace(k); k != "" {
			want[strings.ToLower(k)] = true
		}
	}

	if *archiveIn != "" {
		if len(want) == 0 {
			for _, k := range scanLevel {
				want[k] = true
			}
		}
		for k := range want {
			if !slices.Contains(scanLevel, k) {
				log.Fatalf("experiment %q needs the raw probe stream; -archive mode supports: %s",
					k, strings.Join(scanLevel, ","))
			}
		}
	}
	enabled := func(k string) bool { return len(want) == 0 || want[k] }

	needDecade := *archiveOut != ""
	for _, k := range []string{"table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"sec51", "sec52", "sec54", "sec63", "sec64", "bias", "blockable", "collab", "zmapdaily"} {
		if enabled(k) {
			needDecade = true
		}
	}

	// years are the simulated years, camps their campaigns or an archive's.
	var years []*analysis.YearData
	var camps []*analysis.Campaigns
	switch {
	case *archiveIn != "":
		rd, err := archive.Open(*archiveIn)
		if err != nil {
			log.Fatal(err)
		}
		defer rd.Close()
		rd.SetMetrics(reg)
		log.Printf("loading campaigns from %s (%d blocks, %d scans, telescope %d)...",
			*archiveIn, rd.NumBlocks(), rd.NumScans(), rd.TelescopeSize())
		camps, err = analysis.CollectArchiveYears(rd)
		if err != nil {
			log.Fatal(err)
		}
	case needDecade:
		log.Printf("simulating 2015-2024 (seed %d, scale %g, telescope %d)...", *seed, *scale, *telSize)
		var err error
		years, err = analysis.Decade(*seed, *scale, *telSize, cc)
		if err != nil {
			log.Fatal(err)
		}
		camps = analysis.CampaignsOf(years)
		if *archiveOut != "" {
			w, err := archive.Create(*archiveOut, archive.WriterConfig{
				TelescopeSize: *telSize, Origins: true, Metrics: reg,
			})
			if err != nil {
				log.Fatal(err)
			}
			for _, c := range camps {
				if err := analysis.ArchiveYear(w, c); err != nil {
					log.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				log.Fatal(err)
			}
			log.Printf("archived %d years of campaigns to %s", len(years), *archiveOut)
		}
	}
	byYear := map[int]*analysis.YearData{}
	for _, yd := range years {
		byYear[yd.Year] = yd
	}
	campaigns := map[int]*analysis.Campaigns{}
	for _, c := range camps {
		campaigns[c.Year] = c
	}
	// mustYear guards experiments pinned to one calibration year: an archive
	// may not contain it.
	mustYear := func(y int) *analysis.Campaigns {
		c := campaigns[y]
		if c == nil {
			log.Fatalf("no campaigns for year %d in %s", y, *archiveIn)
		}
		return c
	}
	scenario := func(year int) *workload.Scenario {
		s, err := workload.NewScenario(workload.Config{
			Year: year, Seed: *seed, Scale: *scale, TelescopeSize: *telSize,
		})
		if err != nil {
			log.Fatal(err)
		}
		return s
	}
	out := os.Stdout

	if enabled("table1") {
		section(out, "Table 1 — scan volume, top ports, tools (2015-2024)")
		report.Table1(out, analysis.Table1(years, 5))
	}

	if enabled("table2") {
		section(out, "Table 2 — scanner types (sources / scans / packets)")
		report.Table2(out, analysis.Table2(years))
	}

	if enabled("fig1") {
		section(out, "Figure 1 — post-disclosure surge and decay (2019, synthetic CVE on port 9898)")
		ev := workload.Disclosure{Day: 12, Port: 9898, PeakPerDay: 60000, DecayDays: 4}
		res, err := analysis.Figure1(*seed, *scale, *telSize, 2019, ev)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "peak: day %d at %.1fx the pre-event baseline\n", res.PeakDay, res.PeakFactor)
		fmt.Fprintf(out, "KS(before vs final 2 weeks): D=%.3f p=%.3f same-distribution=%v\n",
			res.KS.D, res.KS.P, res.KS.SameDistribution(0.05))
		fmt.Fprintln(out, "relative activity by day:")
		for d, v := range res.RelativeActivity {
			if d%3 == 0 {
				fmt.Fprintf(out, "  day %2d: %6.2fx\n", d, v)
			}
		}
	}

	if enabled("zmapdaily") {
		section(out, "§4.1 — ZMap campaigns per day (2023 vs 2024)")
		t := report.NewTable("year", "min/day", "mean/day", "max/day")
		for _, y := range []int{2023, 2024} {
			r := analysis.ZMapDaily(mustYear(y))
			t.AddRow(fmt.Sprint(y), fmt.Sprint(r.Min), fmt.Sprintf("%.1f", r.Mean), fmt.Sprint(r.Max))
		}
		t.WriteTo(out)
		fmt.Fprintln(out, "(paper: min 17,122/day in 2024 vs max 9,051/day in 2023)")
	}

	if enabled("fig2") {
		section(out, "Figure 2 — weekly change per /16 netblock (2020)")
		res := analysis.Figure2(byYear[2020])
		fmt.Fprintf(out, "blocks changing >=2x week-over-week: sources %s, scans %s, packets %s\n",
			report.Pct(res.SourcesTwofold), report.Pct(res.ScansTwofold), report.Pct(res.PacketsTwofold))
		fmt.Fprintf(out, "stable blocks (<1.25x): %s\n", report.Pct(res.Stable))
		report.CDF(out, "packet change factor", stats.NewECDF(res.PacketRatios))
	}

	if enabled("fig3") {
		section(out, "Figure 3 — distinct ports per source")
		t := report.NewTable("year", "1 port", ">=3 ports", ">=5 ports")
		for _, yd := range years {
			f := analysis.Figure3(yd)
			t.AddRow(fmt.Sprint(f.Year), report.Pct(f.SinglePortShare),
				report.Pct(f.ThreePlusShare), report.Pct(f.FivePlusShare))
		}
		t.WriteTo(out)
	}

	if enabled("fig4") {
		for _, y := range []int{2017, 2020, 2022} {
			section(out, fmt.Sprintf("Figure 4 — top-10 ports and tool mix (%d)", y))
			report.Figure4(out, y, analysis.Figure4(byYear[y], 10))
		}
	}

	if enabled("fig5") {
		section(out, "Figure 5 — scanner types over top-15 ports (2022)")
		report.Figure5(out, analysis.Figure5(mustYear(2022), 15))
	}

	if enabled("fig6") {
		section(out, "Figure 6 — scanner recurrence and downtime (2022)")
		res := analysis.Figure6([]*analysis.Campaigns{mustYear(2022)})
		t := report.NewTable("scanner type", "sources", "mean scans/source", "daily-mode share")
		for _, typ := range inetmodel.ScannerTypes {
			ss := res.ScansPerSource[typ]
			if len(ss) == 0 {
				continue
			}
			t.AddRow(typ.String(), fmt.Sprint(len(ss)),
				fmt.Sprintf("%.2f", stats.Mean(ss)),
				report.Pct(res.DailyModeShare[typ]))
		}
		t.WriteTo(out)
	}

	if enabled("fig7") {
		section(out, "Figure 7 — speed and coverage per scanner type (2022)")
		report.Figure7(out, analysis.Figure7(mustYear(2022)))
	}

	if fig910 := enabled("fig9") || enabled("fig10"); fig910 || enabled("fig8") {
		cover2024 := analysis.Figure8(scenario(2024)) // both figures read it
		if enabled("fig8") {
			section(out, "Figure 8 — institutional port coverage (2024)")
			report.Figure8(out, cover2024)
		}
		if fig910 {
			section(out, "Figures 9/10 — institutional port coverage, 2023 vs 2024")
			report.Figure910(out, analysis.Figure910(analysis.Figure8(scenario(2023)), cover2024))
		}
	}

	if enabled("sec51") {
		section(out, "§5.1 — port-space coverage and alias co-scanning")
		svc := inetmodel.NewServiceModel(*seed)
		t := report.NewTable("year", "privileged coverage", "80&8080 co-scan", ">=3 ports", "services/scans R")
		var all []*analysis.Sec51Result
		for _, yd := range years {
			r := analysis.Sec51(yd, svc, *seed)
			all = append(all, r)
			t.AddRow(fmt.Sprint(r.Year), report.Pct(r.PrivilegedCoverage),
				report.Pct(r.CoScan80_8080), report.Pct(r.ThreePlusShare),
				fmt.Sprintf("%.3f", r.ServicesScansR.R))
		}
		t.WriteTo(out)
		if trend, err := analysis.ThreePlusTrend(all); err == nil {
			fmt.Fprintf(out, ">=3-port trend across years: R=%.3f p=%.4f (paper: R=0.88, p<0.05)\n", trend.R, trend.P)
		}
	}

	if enabled("sec52") {
		section(out, "§5.2 — vertical scans")
		t := report.NewTable("year", ">100 ports", ">1000 ports", ">10000 ports", "largest", "speed>1000p (Mbps)", "speed all (Mbps)")
		for _, c := range camps {
			r := analysis.Sec52(c)
			t.AddRow(fmt.Sprint(r.Year), fmt.Sprint(r.Over100), fmt.Sprint(r.Over1000),
				fmt.Sprint(r.Over10000), fmt.Sprint(r.LargestPortCount),
				fmt.Sprintf("%.1f", r.MeanSpeedOver1000Mbps),
				fmt.Sprintf("%.1f", r.MeanSpeedAllMbps))
		}
		t.WriteTo(out)
	}

	if enabled("sec63") {
		section(out, "§6.3 — scanning speed by tool (median extrapolated pps)")
		t := report.NewTable("year", "zmap", "masscan", "nmap", "mirai", "custom", "top-100 mean")
		var all []*analysis.Sec63Result
		for _, c := range camps {
			r := analysis.Sec63(c)
			all = append(all, r)
			t.AddRow(fmt.Sprint(r.Year),
				report.Count(r.MedianPPS[tools.ToolZMap]),
				report.Count(r.MedianPPS[tools.ToolMasscan]),
				report.Count(r.MedianPPS[tools.ToolNMap]),
				report.Count(r.MedianPPS[tools.ToolMirai]),
				report.Count(r.MedianPPS[tools.ToolCustom]),
				report.Count(r.Top100MeanPPS))
		}
		t.WriteTo(out)
		if trend, err := analysis.Top100Trend(all); err == nil {
			fmt.Fprintf(out, "top-100 speed trend: R=%.3f p=%.4f (paper: R=0.356, p<0.001)\n", trend.R, trend.P)
		}
		if c := campaigns[2020]; c != nil {
			if sp, err := analysis.SpeedPortsCorrelation(c); err == nil {
				fmt.Fprintf(out, "speed vs ports targeted (2020): R=%.3f p=%.4f (paper §5.3: positive, R=0.88 aggregated)\n", sp.R, sp.P)
			}
		}
	}

	if enabled("sec54") {
		section(out, "§5.4 — origin-country structure")
		t := report.NewTable("year", "top origins", "CN-dominated ports", "US", "443 lead", "3389 lead")
		for _, yd := range years {
			r := analysis.Sec54(yd)
			tops := ""
			for i, cs := range r.TopCountries {
				if i >= 3 {
					break
				}
				if i > 0 {
					tops += " "
				}
				tops += fmt.Sprintf("%s(%.0f%%)", cs.Country, cs.Share*100)
			}
			lead := func(port uint16) string {
				if o := r.PortOrigins[port]; len(o) > 0 {
					return fmt.Sprintf("%s(%.0f%%)", o[0].Country, o[0].Share*100)
				}
				return "-"
			}
			t.AddRow(fmt.Sprint(r.Year), tops,
				fmt.Sprint(r.DominatedPorts["CN"]), fmt.Sprint(r.DominatedPorts["US"]),
				lead(443), lead(3389))
		}
		t.WriteTo(out)
	}

	if enabled("bias") {
		section(out, "§7 — benign-scanner measurement bias")
		t := report.NewTable("year", "institutional packet share", "top-5 set changes when filtered")
		for _, yd := range years {
			r := analysis.InstitutionalBias(yd, 5)
			t.AddRow(fmt.Sprint(r.Year), report.Pct(r.InstPacketShare), fmt.Sprint(r.RankingChanged))
		}
		t.WriteTo(out)
	}

	if enabled("blockable") {
		section(out, "§7 — traffic blockable via tool fingerprints")
		t := report.NewTable("year", "identifiable share", "zmap", "masscan", "mirai")
		for _, yd := range years {
			r := analysis.Blockable(yd)
			t.AddRow(fmt.Sprint(r.Year), report.Pct(r.Share),
				report.Pct(r.PerTool[tools.ToolZMap]),
				report.Pct(r.PerTool[tools.ToolMasscan]),
				report.Pct(r.PerTool[tools.ToolMirai]))
		}
		t.WriteTo(out)
	}

	if enabled("blocklist") {
		section(out, "§4.4/§6.6 — blocklist staleness (2022)")
		r := analysis.BlocklistDecay(scenario(2022))
		t := report.NewTable("list age (weeks)", "all traffic covered", "institutional covered")
		for k := 0; k < r.Weeks; k++ {
			t.AddRow(fmt.Sprint(k), report.Pct(r.HitRate[k]), report.Pct(r.InstHitRate[k]))
		}
		t.WriteTo(out)
	}

	if enabled("collab") {
		section(out, "§4.1/§6.4 — collaborative scan reconstruction")
		t := report.NewTable("year", "raw scans", "logical scans", "collaborative", "largest group", "inflation")
		for _, c := range camps {
			st := collab.Summarize(collab.Detect(c.QualifiedScans(), collab.Config{}))
			t.AddRow(fmt.Sprint(c.Year), fmt.Sprint(st.RawScans), fmt.Sprint(st.LogicalScans),
				fmt.Sprint(st.Collaborative), fmt.Sprint(st.LargestGroup),
				fmt.Sprintf("%.2fx", st.InflationFactor))
		}
		t.WriteTo(out)
	}

	if enabled("vantage") {
		section(out, "§7 — vantage-point comparison (2022, two telescopes)")
		r, err := analysis.CompareVantage(2022, *seed, *scale, *telSize, *seed+100, *seed+200)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "packet ratio %.3f, scan ratio %.3f, top-10 port overlap %s\n",
			r.PacketRatio, r.ScanRatio, report.Pct(r.TopPortOverlap))
		fmt.Fprintf(out, "speed distributions: KS D=%.3f p=%.3f same=%v\n",
			r.SpeedKS.D, r.SpeedKS.P, r.SpeedKS.SameDistribution(0.05))
	}

	if enabled("sec64") {
		section(out, "§6.4 — ZMap coverage distribution and sharding modes (2024)")
		r := analysis.Sec64(mustYear(2024), tools.ToolZMap)
		fmt.Fprintf(out, "zmap campaigns: %d, full-IPv4 share: %s, mode at %.1f%% coverage (%d campaigns)\n",
			len(r.Coverages), report.Pct(r.FullIPv4Share), r.ModeCoverage*100, r.ModeCount)
		report.CDF(out, "zmap coverage", stats.NewECDF(r.Coverages))
	}

	dumpMetrics()
}

// scanLevel lists the experiments that read only detected campaigns (their
// analyses take *analysis.Campaigns) — the ones an archive, which stores
// campaigns and not raw probes, can serve; everything else needs a simulation
// or a capture replay.
var scanLevel = []string{"collab", "fig5", "fig6", "fig7", "sec52", "sec63", "sec64", "zmapdaily"}

func section(w *os.File, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}
