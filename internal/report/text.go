package report

import (
	"fmt"
	"io"
	"strings"

	"github.com/synscan/synscan/internal/analysis"
	"github.com/synscan/synscan/internal/collab"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/stats"
	"github.com/synscan/synscan/internal/tools"
)

// Text renders the evaluation as the text report EXPERIMENTS.md records: one
// titled section per evaluated experiment, in the experiment table's order.
func Text(w io.Writer, ev *analysis.Evaluation) {
	for _, e := range analysis.Experiments {
		if !e.Evaluated(ev) {
			continue
		}
		if !strings.Contains(e.Title, "%d") {
			section(w, e.Title)
		}
		textSections[e.Key](w, ev)
	}
}

func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

// table renders one row per item under the header.
func table[T any](w io.Writer, items []T, cells func(T) []string, header ...string) {
	t := NewTable(header...)
	for _, item := range items {
		t.AddRow(cells(item)...)
	}
	t.WriteTo(w)
}

// textSections renders each experiment's section body, by key.
var textSections = map[string]func(w io.Writer, ev *analysis.Evaluation){
	"table1": func(w io.Writer, ev *analysis.Evaluation) {
		table(w, ev.Table1, func(r analysis.Table1Row) []string {
			return []string{
				fmt.Sprint(r.Year),
				Count(r.PacketsPerDay),
				Count(r.ScansPerMonth),
				portList(r.TopPortsByPackets),
				portList(r.TopPortsBySources),
				portList(r.TopPortsByScans),
				Pct(r.ToolShares[tools.ToolMasscan]),
				Pct(r.ToolShares[tools.ToolNMap]),
				Pct(r.ToolShares[tools.ToolMirai]),
				Pct(r.ToolShares[tools.ToolZMap]),
			}
		}, "year", "pkts/day", "scans/month", "top by pkts", "top by srcs", "top by scans",
			"masscan", "nmap", "mirai", "zmap")
	},
	"table2": func(w io.Writer, ev *analysis.Evaluation) {
		table(w, ev.Table2, func(r analysis.Table2Row) []string {
			return []string{r.Type.String(), Pct(r.Sources), Pct(r.Scans), Pct(r.Packets)}
		}, "scanner type", "sources", "scans", "packets")
	},
	"fig1": func(w io.Writer, ev *analysis.Evaluation) {
		res := ev.Figure1
		fmt.Fprintf(w, "peak: day %d at %.1fx the pre-event baseline\n", res.PeakDay, res.PeakFactor)
		fmt.Fprintf(w, "KS(before vs final 2 weeks): D=%.3f p=%.3f same-distribution=%v\n",
			res.KS.D, res.KS.P, res.KS.SameDistribution(0.05))
		fmt.Fprintln(w, "relative activity by day:")
		for d, v := range res.RelativeActivity {
			if d%3 == 0 {
				fmt.Fprintf(w, "  day %2d: %6.2fx\n", d, v)
			}
		}
	},
	"zmapdaily": func(w io.Writer, ev *analysis.Evaluation) {
		table(w, ev.ZMapDaily, func(r *analysis.ZMapDailyResult) []string {
			return []string{fmt.Sprint(r.Year), fmt.Sprint(r.Min), fmt.Sprintf("%.1f", r.Mean), fmt.Sprint(r.Max)}
		}, "year", "min/day", "mean/day", "max/day")
		fmt.Fprintln(w, "(paper: min 17,122/day in 2024 vs max 9,051/day in 2023)")
	},
	"sec42": func(w io.Writer, ev *analysis.Evaluation) {
		table(w, ev.Sec42, func(o analysis.NormalizedOrigin) []string {
			return []string{o.Country, Pct(o.RawShare), Pct(o.AddressShare), fmt.Sprintf("%.2fx", o.Intensity)}
		}, "country", "packet share", "address share", "intensity")
		fmt.Fprintln(w, "(paper: once normalized, the loud origins no longer stand out and NL becomes the outlier)")
	},
	"fig2": func(w io.Writer, ev *analysis.Evaluation) {
		res := ev.Figure2
		fmt.Fprintf(w, "blocks changing >=2x week-over-week: sources %s, scans %s, packets %s\n",
			Pct(res.SourcesTwofold), Pct(res.ScansTwofold), Pct(res.PacketsTwofold))
		fmt.Fprintf(w, "stable blocks (<1.25x): %s\n", Pct(res.Stable))
		CDF(w, "packet change factor", stats.NewECDF(res.PacketRatios))
	},
	"fig3": func(w io.Writer, ev *analysis.Evaluation) {
		table(w, ev.Figure3, func(f *analysis.Figure3Result) []string {
			return []string{fmt.Sprint(f.Year), Pct(f.SinglePortShare), Pct(f.ThreePlusShare), Pct(f.FivePlusShare)}
		}, "year", "1 port", ">=3 ports", ">=5 ports")
	},
	"fig4": func(w io.Writer, ev *analysis.Evaluation) {
		fig4 := analysis.Lookup("fig4")
		for _, y := range fig4.Years {
			if _, evaluated := ev.Figure4[y]; !evaluated {
				continue
			}
			section(w, fmt.Sprintf(fig4.Title, y))
			fmt.Fprintf(w, "Figure 4 — top ports by traffic and tool mix, %d\n", y)
			table(w, ev.Figure4[y], func(fp analysis.Figure4Port) []string {
				return []string{
					PortLabel(fp.Port),
					Count(float64(fp.Packets)),
					Pct(fp.ToolShare[tools.ToolZMap]),
					Pct(fp.ToolShare[tools.ToolMasscan]),
					Pct(fp.ToolShare[tools.ToolMirai]),
					Pct(fp.ToolShare[tools.ToolUnknown]),
				}
			}, "port", "packets", "zmap", "masscan", "mirai", "other")
		}
	},
	"fig5": func(w io.Writer, ev *analysis.Evaluation) {
		table(w, ev.Figure5, func(fp analysis.Figure5Port) []string {
			return []string{
				PortLabel(fp.Port),
				fmt.Sprint(fp.Scans),
				Pct(fp.TypeShare[inetmodel.TypeHosting]),
				Pct(fp.TypeShare[inetmodel.TypeEnterprise]),
				Pct(fp.TypeShare[inetmodel.TypeInstitutional]),
				Pct(fp.TypeShare[inetmodel.TypeResidential]),
				Pct(fp.TypeShare[inetmodel.TypeUnknown]),
			}
		}, "port", "scans", "hosting", "enterprise", "institutional", "residential", "unknown")
	},
	"fig6": func(w io.Writer, ev *analysis.Evaluation) {
		res := ev.Figure6
		t := NewTable("scanner type", "sources", "mean scans/source", "daily-mode share")
		for _, typ := range inetmodel.ScannerTypes {
			if ss := res.ScansPerSource[typ]; len(ss) > 0 {
				t.AddRow(typ.String(), fmt.Sprint(len(ss)), fmt.Sprintf("%.2f", stats.Mean(ss)),
					Pct(res.DailyModeShare[typ]))
			}
		}
		t.WriteTo(w)
	},
	"fig7": func(w io.Writer, ev *analysis.Evaluation) {
		table(w, ev.Figure7, func(r analysis.Figure7Row) []string {
			return []string{r.Type.String(), fmt.Sprint(r.Scans),
				Count(r.MeanSpeedPPS), Count(r.MedianSpeedPPS),
				Pct(r.Above1000PPS), Pct(r.MeanCoverage)}
		}, "scanner type", "scans", "mean pps", "median pps", ">1000pps", "mean coverage")
	},
	// Figure 8 carries a 64-bucket port map per organization — the textual form
	// of the appendix figures (each cell is a 1024-port slice of the range;
	// darker means denser).
	"fig8": func(w io.Writer, ev *analysis.Evaluation) {
		table(w, ev.Figure8, func(r analysis.Figure8Row) []string {
			full := ""
			if r.FullRange {
				full = "yes"
			}
			return []string{r.Org, r.Kind.String(), fmt.Sprint(r.PortsCovered), full,
				Count(float64(r.Packets)), PortMap(r.Density[:])}
		}, "organization", "kind", "ports", "full range", "packets", "port map 0..65535")
	},
	"fig9": func(w io.Writer, ev *analysis.Evaluation) {
		table(w, ev.Fig910, func(r analysis.Figure910Row) []string {
			return []string{r.Org, fmt.Sprint(r.Ports2023), fmt.Sprint(r.Ports2024),
				fmt.Sprintf("%+d", r.Ports2024-r.Ports2023)}
		}, "organization", "ports 2023", "ports 2024", "delta")
	},
	"sec51": func(w io.Writer, ev *analysis.Evaluation) {
		table(w, ev.Sec51, func(r *analysis.Sec51Result) []string {
			return []string{fmt.Sprint(r.Year), Pct(r.PrivilegedCoverage), Pct(r.CoScan80_8080),
				Pct(r.ThreePlusShare), fmt.Sprintf("%.3f", r.ServicesScansR.R)}
		}, "year", "privileged coverage", "80&8080 co-scan", ">=3 ports", "services/scans R")
		if trend := ev.ThreePlusTrend; trend.N > 0 {
			fmt.Fprintf(w, ">=3-port trend across years: R=%.3f p=%.4f (paper: R=0.88, p<0.05)\n", trend.R, trend.P)
		}
	},
	"sec52": func(w io.Writer, ev *analysis.Evaluation) {
		table(w, ev.Sec52, func(r *analysis.Sec52Result) []string {
			return []string{fmt.Sprint(r.Year), fmt.Sprint(r.Over100), fmt.Sprint(r.Over1000),
				fmt.Sprint(r.Over10000), fmt.Sprint(r.LargestPortCount),
				fmt.Sprintf("%.1f", r.MeanSpeedOver1000Mbps), fmt.Sprintf("%.1f", r.MeanSpeedAllMbps)}
		}, "year", ">100 ports", ">1000 ports", ">10000 ports", "largest", "speed>1000p (Mbps)", "speed all (Mbps)")
	},
	"sec63": func(w io.Writer, ev *analysis.Evaluation) {
		table(w, ev.Sec63, func(r *analysis.Sec63Result) []string {
			return []string{fmt.Sprint(r.Year),
				Count(r.MedianPPS[tools.ToolZMap]), Count(r.MedianPPS[tools.ToolMasscan]),
				Count(r.MedianPPS[tools.ToolNMap]), Count(r.MedianPPS[tools.ToolMirai]),
				Count(r.MedianPPS[tools.ToolCustom]), Count(r.Top100MeanPPS)}
		}, "year", "zmap", "masscan", "nmap", "mirai", "custom", "top-100 mean")
		if trend := ev.Top100Trend; trend.N > 0 {
			fmt.Fprintf(w, "top-100 speed trend: R=%.3f p=%.4f (paper: R=0.356, p<0.001)\n", trend.R, trend.P)
		}
		for year, sp := range ev.SpeedPorts {
			fmt.Fprintf(w, "speed vs ports targeted (%d): R=%.3f p=%.4f (paper §5.3: positive, R=0.88 aggregated)\n",
				year, sp.R, sp.P)
		}
	},
	"sec54": func(w io.Writer, ev *analysis.Evaluation) {
		share := func(cs analysis.CountryShare) string { return fmt.Sprintf("%s(%.0f%%)", cs.Country, cs.Share*100) }
		table(w, ev.Sec54, func(r *analysis.Sec54Result) []string {
			var tops []string
			for _, cs := range r.TopCountries[:min(3, len(r.TopCountries))] {
				tops = append(tops, share(cs))
			}
			lead := func(port uint16) string {
				if o := r.PortOrigins[port]; len(o) > 0 {
					return share(o[0])
				}
				return "-"
			}
			return []string{fmt.Sprint(r.Year), strings.Join(tops, " "),
				fmt.Sprint(r.DominatedPorts["CN"]), fmt.Sprint(r.DominatedPorts["US"]),
				lead(443), lead(3389)}
		}, "year", "top origins", "CN-dominated ports", "US", "443 lead", "3389 lead")
	},
	"bias": func(w io.Writer, ev *analysis.Evaluation) {
		table(w, ev.Bias, func(r *analysis.BiasResult) []string {
			return []string{fmt.Sprint(r.Year), Pct(r.InstPacketShare), fmt.Sprint(r.RankingChanged)}
		}, "year", "institutional packet share",
			fmt.Sprintf("top-%d set changes when filtered", analysis.Lookup("bias").TopN))
	},
	"blockable": func(w io.Writer, ev *analysis.Evaluation) {
		table(w, ev.Blockable, func(r *analysis.BlockableResult) []string {
			return []string{fmt.Sprint(r.Year), Pct(r.Share), Pct(r.PerTool[tools.ToolZMap]),
				Pct(r.PerTool[tools.ToolMasscan]), Pct(r.PerTool[tools.ToolMirai])}
		}, "year", "identifiable share", "zmap", "masscan", "mirai")
	},
	"blocklist": func(w io.Writer, ev *analysis.Evaluation) {
		r := ev.Blocklist
		t := NewTable("list age (weeks)", "all traffic covered", "institutional covered")
		for k := 0; k < r.Weeks; k++ {
			t.AddRow(fmt.Sprint(k), Pct(r.HitRate[k]), Pct(r.InstHitRate[k]))
		}
		t.WriteTo(w)
	},
	"collab": func(w io.Writer, ev *analysis.Evaluation) {
		table(w, ev.Collab, func(st collab.Stats) []string {
			return []string{fmt.Sprint(st.Year), fmt.Sprint(st.RawScans), fmt.Sprint(st.LogicalScans),
				fmt.Sprint(st.Collaborative), fmt.Sprint(st.LargestGroup),
				fmt.Sprintf("%.2fx", st.InflationFactor)}
		}, "year", "raw scans", "logical scans", "collaborative", "largest group", "inflation")
	},
	"vantage": func(w io.Writer, ev *analysis.Evaluation) {
		r := ev.Vantage
		fmt.Fprintf(w, "packet ratio %.3f, scan ratio %.3f, top-10 port overlap %s\n",
			r.PacketRatio, r.ScanRatio, Pct(r.TopPortOverlap))
		fmt.Fprintf(w, "speed distributions: KS D=%.3f p=%.3f same=%v\n",
			r.SpeedKS.D, r.SpeedKS.P, r.SpeedKS.SameDistribution(0.05))
	},
	"sec64": func(w io.Writer, ev *analysis.Evaluation) {
		r := ev.Sec64
		fmt.Fprintf(w, "zmap campaigns: %d, full-IPv4 share: %s, mode at %.1f%% coverage (%d campaigns)\n",
			len(r.Coverages), Pct(r.FullIPv4Share), r.ModeCoverage*100, r.ModeCount)
		CDF(w, "zmap coverage", stats.NewECDF(r.Coverages))
	},
}
