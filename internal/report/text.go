package report

import (
	"fmt"
	"io"
	"slices"
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
	render(&page{w: w}, ev)
}

// Markdown renders the same sections as Text in Markdown syntax under a
// header naming the configuration — the auto-generated counterpart of
// EXPERIMENTS.md, suitable for committing next to a changed calibration.
func Markdown(w io.Writer, ev *analysis.Evaluation) {
	fmt.Fprintf(w, "# synscan evaluation\n\nConfiguration: seed %d, scale %g, telescope %d addresses.\n",
		ev.Seed, ev.Scale, ev.TelescopeSize)
	p := &page{w: w, md: true}
	render(p, ev)
	p.endFence()
}

// render writes one section per evaluated experiment, in table order.
func render(p *page, ev *analysis.Evaluation) {
	for _, e := range analysis.Experiments {
		if !e.Evaluated(ev) {
			continue
		}
		if !strings.Contains(e.Title, "%d") {
			p.section(e.Title)
		}
		textSections[e.Key](p, ev)
	}
}

// page is what a section body writes to. Its two modes differ only in
// syntax: a title is underlined in text and a "## " heading in Markdown, a
// table is aligned in text and a pipe table in Markdown, and free lines —
// whatever is written to the page itself — are plain in text and fenced in
// Markdown, so a CDF dump keeps its layout.
type page struct {
	w      io.Writer
	md     bool
	fenced bool // Markdown: a run of free lines is open
}

func (p *page) section(title string) {
	if !p.md {
		fmt.Fprintf(p.w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
		return
	}
	p.endFence()
	fmt.Fprintf(p.w, "\n## %s\n", title)
}

func (p *page) table(t *Table) {
	if !p.md {
		t.WriteTo(p.w)
		return
	}
	p.endFence()
	row := func(cells []string) {
		for _, c := range cells {
			fmt.Fprintf(p.w, "| %s ", strings.ReplaceAll(c, "|", `\|`))
		}
		fmt.Fprintln(p.w, "|")
	}
	fmt.Fprintln(p.w)
	row(t.header)
	fmt.Fprintf(p.w, "|%s\n", strings.Repeat(" --- |", len(t.header)))
	for _, r := range t.rows {
		row(r)
	}
}

// Write takes free lines.
func (p *page) Write(b []byte) (int, error) {
	if p.md && !p.fenced {
		fmt.Fprint(p.w, "\n```\n")
		p.fenced = true
	}
	return p.w.Write(b)
}

func (p *page) endFence() {
	if p.fenced {
		fmt.Fprint(p.w, "```\n")
		p.fenced = false
	}
}

// table renders one row per item under the header.
func table[T any](p *page, items []T, cells func(T) []string, header ...string) {
	t := NewTable(header...)
	for _, item := range items {
		t.AddRow(cells(item)...)
	}
	p.table(t)
}

// textSections renders each experiment's section body, by key.
var textSections = map[string]func(p *page, ev *analysis.Evaluation){
	"table1": func(p *page, ev *analysis.Evaluation) {
		table(p, ev.Table1, func(r analysis.Table1Row) []string {
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
	"table2": func(p *page, ev *analysis.Evaluation) {
		table(p, ev.Table2, func(r analysis.Table2Row) []string {
			return []string{r.Type.String(), Pct(r.Sources), Pct(r.Scans), Pct(r.Packets)}
		}, "scanner type", "sources", "scans", "packets")
	},
	"fig1": func(p *page, ev *analysis.Evaluation) {
		res := ev.Figure1
		fmt.Fprintf(p, "peak: day %d at %.1fx the pre-event baseline\n", res.PeakDay, res.PeakFactor)
		fmt.Fprintf(p, "KS(before vs final 2 weeks): D=%.3f p=%.3f same-distribution=%v\n",
			res.KS.D, res.KS.P, res.KS.SameDistribution(0.05))
		fmt.Fprintln(p, "relative activity by day:")
		for d, v := range res.RelativeActivity {
			if d%3 == 0 {
				fmt.Fprintf(p, "  day %2d: %6.2fx\n", d, v)
			}
		}
	},
	"zmapdaily": func(p *page, ev *analysis.Evaluation) {
		table(p, ev.ZMapDaily, func(r *analysis.ZMapDailyResult) []string {
			return []string{fmt.Sprint(r.Year), fmt.Sprint(r.Min), fmt.Sprintf("%.1f", r.Mean), fmt.Sprint(r.Max)}
		}, "year", "min/day", "mean/day", "max/day")
		fmt.Fprintln(p, "(paper: min 17,122/day in 2024 vs max 9,051/day in 2023)")
	},
	"sec42": func(p *page, ev *analysis.Evaluation) {
		table(p, ev.Sec42, func(o analysis.NormalizedOrigin) []string {
			return []string{o.Country, Pct(o.RawShare), Pct(o.AddressShare), fmt.Sprintf("%.2fx", o.Intensity)}
		}, "country", "packet share", "address share", "intensity")
		fmt.Fprintln(p, "(paper: once normalized, the loud origins no longer stand out and NL becomes the outlier)")
	},
	"fig2": func(p *page, ev *analysis.Evaluation) {
		res := ev.Figure2
		fmt.Fprintf(p, "blocks changing >=2x week-over-week: sources %s, scans %s, packets %s\n",
			Pct(res.SourcesTwofold), Pct(res.ScansTwofold), Pct(res.PacketsTwofold))
		fmt.Fprintf(p, "stable blocks (<1.25x): %s\n", Pct(res.Stable))
		CDF(p, "packet change factor", stats.NewECDF(res.PacketRatios))
	},
	"fig3": func(p *page, ev *analysis.Evaluation) {
		table(p, ev.Figure3, func(f *analysis.Figure3Result) []string {
			return []string{fmt.Sprint(f.Year), Pct(f.SinglePortShare), Pct(f.ThreePlusShare), Pct(f.FivePlusShare)}
		}, "year", "1 port", ">=3 ports", ">=5 ports")
	},
	"fig4": func(p *page, ev *analysis.Evaluation) {
		fig4 := analysis.Lookup("fig4")
		for _, y := range fig4.Years {
			if _, evaluated := ev.Figure4[y]; !evaluated {
				continue
			}
			p.section(fmt.Sprintf(fig4.Title, y))
			fmt.Fprintf(p, "Figure 4 — top ports by traffic and tool mix, %d\n", y)
			table(p, ev.Figure4[y], func(fp analysis.Figure4Port) []string {
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
	"fig5": func(p *page, ev *analysis.Evaluation) {
		table(p, ev.Figure5, func(fp analysis.Figure5Port) []string {
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
	"fig6": func(p *page, ev *analysis.Evaluation) {
		res := ev.Figure6
		t := NewTable("scanner type", "sources", "mean scans/source", "daily-mode share")
		for _, typ := range inetmodel.ScannerTypes {
			if ss := res.ScansPerSource[typ]; len(ss) > 0 {
				t.AddRow(typ.String(), fmt.Sprint(len(ss)), fmt.Sprintf("%.2f", stats.Mean(ss)),
					Pct(res.DailyModeShare[typ]))
			}
		}
		p.table(t)
	},
	"fig7": func(p *page, ev *analysis.Evaluation) {
		table(p, ev.Figure7, func(r analysis.Figure7Row) []string {
			return []string{r.Type.String(), fmt.Sprint(r.Scans),
				Count(r.MeanSpeedPPS), Count(r.MedianSpeedPPS),
				Pct(r.Above1000PPS), Pct(r.MeanCoverage)}
		}, "scanner type", "scans", "mean pps", "median pps", ">1000pps", "mean coverage")
	},
	// Figure 8 carries a 64-bucket port map per organization — the textual form
	// of the appendix figures (each cell is a 1024-port slice of the range;
	// darker means denser).
	"fig8": func(p *page, ev *analysis.Evaluation) {
		table(p, ev.Figure8, func(r analysis.Figure8Row) []string {
			full := ""
			if r.FullRange {
				full = "yes"
			}
			pm := PortMap(r.Density[:])
			if p.md {
				// A Markdown renderer trims a cell's surrounding blanks, which
				// would shift a map whose end buckets are empty.
				pm = strings.ReplaceAll(pm, " ", "·")
			}
			return []string{r.Org, r.Kind.String(), fmt.Sprint(r.PortsCovered), full,
				Count(float64(r.Packets)), pm}
		}, "organization", "kind", "ports", "full range", "packets", "port map 0..65535")
	},
	"fig9": func(p *page, ev *analysis.Evaluation) {
		table(p, ev.Fig910, func(r analysis.Figure910Row) []string {
			return []string{r.Org, fmt.Sprint(r.Ports2023), fmt.Sprint(r.Ports2024),
				fmt.Sprintf("%+d", r.Ports2024-r.Ports2023)}
		}, "organization", "ports 2023", "ports 2024", "delta")
	},
	"sec51": func(p *page, ev *analysis.Evaluation) {
		table(p, ev.Sec51, func(r *analysis.Sec51Result) []string {
			return []string{fmt.Sprint(r.Year), Pct(r.PrivilegedCoverage), Pct(r.CoScan80_8080),
				Pct(r.ThreePlusShare), fmt.Sprintf("%.3f", r.ServicesScansR.R)}
		}, "year", "privileged coverage", "80&8080 co-scan", ">=3 ports", "services/scans R")
		if trend := ev.ThreePlusTrend; trend.N > 0 {
			fmt.Fprintf(p, ">=3-port trend across years: R=%.3f p=%.4f (paper: R=0.88, p<0.05)\n", trend.R, trend.P)
		}
	},
	"sec52": func(p *page, ev *analysis.Evaluation) {
		table(p, ev.Sec52, func(r *analysis.Sec52Result) []string {
			return []string{fmt.Sprint(r.Year), fmt.Sprint(r.Over100), fmt.Sprint(r.Over1000),
				fmt.Sprint(r.Over10000), fmt.Sprint(r.LargestPortCount),
				fmt.Sprintf("%.1f", r.MeanSpeedOver1000Mbps), fmt.Sprintf("%.1f", r.MeanSpeedAllMbps)}
		}, "year", ">100 ports", ">1000 ports", ">10000 ports", "largest", "speed>1000p (Mbps)", "speed all (Mbps)")
	},
	"sec63": func(p *page, ev *analysis.Evaluation) {
		table(p, ev.Sec63, func(r *analysis.Sec63Result) []string {
			return []string{fmt.Sprint(r.Year),
				Count(r.MedianPPS[tools.ToolZMap]), Count(r.MedianPPS[tools.ToolMasscan]),
				Count(r.MedianPPS[tools.ToolNMap]), Count(r.MedianPPS[tools.ToolMirai]),
				Count(r.MedianPPS[tools.ToolCustom]), Count(r.Top100MeanPPS)}
		}, "year", "zmap", "masscan", "nmap", "mirai", "custom", "top-100 mean")
		if trend := ev.Top100Trend; trend.N > 0 {
			fmt.Fprintf(p, "top-100 speed trend: R=%.3f p=%.4f (paper: R=0.356, p<0.001)\n", trend.R, trend.P)
		}
		years := make([]int, 0, len(ev.SpeedPorts))
		for year := range ev.SpeedPorts {
			years = append(years, year)
		}
		slices.Sort(years)
		for _, year := range years {
			sp := ev.SpeedPorts[year]
			fmt.Fprintf(p, "speed vs ports targeted (%d): R=%.3f p=%.4f (paper §5.3: positive, R=0.88 aggregated)\n",
				year, sp.R, sp.P)
		}
	},
	"sec54": func(p *page, ev *analysis.Evaluation) {
		share := func(cs analysis.CountryShare) string { return fmt.Sprintf("%s(%.0f%%)", cs.Country, cs.Share*100) }
		table(p, ev.Sec54, func(r *analysis.Sec54Result) []string {
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
	"bias": func(p *page, ev *analysis.Evaluation) {
		table(p, ev.Bias, func(r *analysis.BiasResult) []string {
			return []string{fmt.Sprint(r.Year), Pct(r.InstPacketShare), fmt.Sprint(r.RankingChanged)}
		}, "year", "institutional packet share",
			fmt.Sprintf("top-%d set changes when filtered", analysis.Lookup("bias").TopN))
	},
	"blockable": func(p *page, ev *analysis.Evaluation) {
		table(p, ev.Blockable, func(r *analysis.BlockableResult) []string {
			return []string{fmt.Sprint(r.Year), Pct(r.Share), Pct(r.PerTool[tools.ToolZMap]),
				Pct(r.PerTool[tools.ToolMasscan]), Pct(r.PerTool[tools.ToolMirai])}
		}, "year", "identifiable share", "zmap", "masscan", "mirai")
	},
	"blocklist": func(p *page, ev *analysis.Evaluation) {
		r := ev.Blocklist
		t := NewTable("list age (weeks)", "all traffic covered", "institutional covered")
		for k := 0; k < r.Weeks; k++ {
			t.AddRow(fmt.Sprint(k), Pct(r.HitRate[k]), Pct(r.InstHitRate[k]))
		}
		p.table(t)
	},
	"collab": func(p *page, ev *analysis.Evaluation) {
		table(p, ev.Collab, func(st collab.Stats) []string {
			return []string{fmt.Sprint(st.Year), fmt.Sprint(st.RawScans), fmt.Sprint(st.LogicalScans),
				fmt.Sprint(st.Collaborative), fmt.Sprint(st.LargestGroup),
				fmt.Sprintf("%.2fx", st.InflationFactor)}
		}, "year", "raw scans", "logical scans", "collaborative", "largest group", "inflation")
	},
	"vantage": func(p *page, ev *analysis.Evaluation) {
		r := ev.Vantage
		fmt.Fprintf(p, "packet ratio %.3f, scan ratio %.3f, top-10 port overlap %s\n",
			r.PacketRatio, r.ScanRatio, Pct(r.TopPortOverlap))
		fmt.Fprintf(p, "speed distributions: KS D=%.3f p=%.3f same=%v\n",
			r.SpeedKS.D, r.SpeedKS.P, r.SpeedKS.SameDistribution(0.05))
	},
	"sec64": func(p *page, ev *analysis.Evaluation) {
		r := ev.Sec64
		fmt.Fprintf(p, "zmap campaigns: %d, full-IPv4 share: %s, mode at %.1f%% coverage (%d campaigns)\n",
			len(r.Coverages), Pct(r.FullIPv4Share), r.ModeCoverage*100, r.ModeCount)
		CDF(p, "zmap coverage", stats.NewECDF(r.Coverages))
	},
}
