package report

import (
	"fmt"
	"io"
	"strings"

	"github.com/synscan/synscan/internal/analysis"
	"github.com/synscan/synscan/internal/tools"
)

// Markdown renders the evaluation as a Markdown document — the
// auto-generated counterpart of EXPERIMENTS.md, suitable for committing
// next to a changed calibration. Sections that were not evaluated are left
// out.
func Markdown(w io.Writer, ev *analysis.Evaluation) {
	pinned := func(key string) int { return analysis.Lookup(key).Years[0] }
	// table opens a section that was evaluated; its rows follow.
	table := func(evaluated bool, title string, header ...string) bool {
		if evaluated {
			fmt.Fprintf(w, "\n## %s\n\n| %s |\n|%s\n", title, strings.Join(header, " | "),
				strings.Repeat(" --- |", len(header)))
		}
		return evaluated
	}
	row := func(cells ...string) { fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")) }

	fmt.Fprintf(w, "# synscan evaluation\n\n")
	fmt.Fprintf(w, "Configuration: seed %d, scale %g, telescope %d addresses.\n",
		ev.Seed, ev.Scale, ev.TelescopeSize)

	if table(ev.Table1 != nil, "Table 1 — ecosystem over the decade",
		"year", "pkts/day", "scans/month", "sources", "masscan", "nmap", "mirai", "zmap") {
		for _, r := range ev.Table1 {
			row(fmt.Sprint(r.Year), Count(r.PacketsPerDay), Count(r.ScansPerMonth), fmt.Sprint(r.DistinctSources),
				Pct(r.ToolShares[tools.ToolMasscan]), Pct(r.ToolShares[tools.ToolNMap]),
				Pct(r.ToolShares[tools.ToolMirai]), Pct(r.ToolShares[tools.ToolZMap]))
		}
	}
	if table(ev.Table2 != nil, "Table 2 — scanner types", "type", "sources", "scans", "packets") {
		for _, r := range ev.Table2 {
			row(r.Type.String(), Pct(r.Sources), Pct(r.Scans), Pct(r.Packets))
		}
	}
	if f := ev.Figure1; f != nil {
		fmt.Fprintf(w, "\n## Figure 1 — disclosure response\n\n")
		fmt.Fprintf(w, "Peak %.1fx baseline on day %d; KS(before vs final weeks) p = %.3f (same distribution: %v).\n",
			f.PeakFactor, f.PeakDay, f.KS.P, f.KS.SameDistribution(0.05))
	}
	if f := ev.Figure2; f != nil {
		fmt.Fprintf(w, "\n## Figure 2 — weekly /16 volatility (%d)\n\n", pinned("fig2"))
		fmt.Fprintf(w, "Blocks changing >= 2x week-over-week: sources %s, scans %s, packets %s; stable blocks %s.\n",
			Pct(f.SourcesTwofold), Pct(f.ScansTwofold), Pct(f.PacketsTwofold), Pct(f.Stable))
	}
	if table(ev.Figure3 != nil, "Figure 3 — ports per source", "year", "single port", ">=3 ports", ">=5 ports") {
		for _, r := range ev.Figure3 {
			row(fmt.Sprint(r.Year), Pct(r.SinglePortShare), Pct(r.ThreePlusShare), Pct(r.FivePlusShare))
		}
	}
	if table(ev.Figure7 != nil, fmt.Sprintf("Figure 7 — speed and coverage per type (%d)", pinned("fig7")),
		"type", "scans", "mean pps", ">1000 pps", "mean coverage") {
		for _, r := range ev.Figure7 {
			row(r.Type.String(), fmt.Sprint(r.Scans), Count(r.MeanSpeedPPS), Pct(r.Above1000PPS), Pct(r.MeanCoverage))
		}
	}
	if table(ev.Figure8 != nil, fmt.Sprintf("Figure 8 — institutional port coverage (%d)", pinned("fig8")),
		"organization", "kind", "ports", "packets") {
		for _, r := range ev.Figure8 {
			row(r.Org, r.Kind.String(), fmt.Sprint(r.PortsCovered), Count(float64(r.Packets)))
		}
	}
	if table(ev.Sec51 != nil, "§5.1 — coverage and co-scanning",
		"year", "privileged coverage", "80&8080 co-scan", ">=3 ports") {
		for _, r := range ev.Sec51 {
			row(fmt.Sprint(r.Year), Pct(r.PrivilegedCoverage), Pct(r.CoScan80_8080), Pct(r.ThreePlusShare))
		}
		fmt.Fprintf(w, "\n>=3-port trend: R = %.3f (p = %.4f); paper: R = 0.88, p < 0.05.\n",
			ev.ThreePlusTrend.R, ev.ThreePlusTrend.P)
	}
	if table(ev.Sec63 != nil, "§6.3 — speeds by tool (median pps)",
		"year", "zmap", "masscan", "nmap", "mirai", "top-100 mean") {
		for _, r := range ev.Sec63 {
			row(fmt.Sprint(r.Year),
				Count(r.MedianPPS[tools.ToolZMap]), Count(r.MedianPPS[tools.ToolMasscan]),
				Count(r.MedianPPS[tools.ToolNMap]), Count(r.MedianPPS[tools.ToolMirai]),
				Count(r.Top100MeanPPS))
		}
		fmt.Fprintf(w, "\nTop-100 speed trend: R = %.3f (p = %.4f); paper: R = 0.356, p < 0.001.\n",
			ev.Top100Trend.R, ev.Top100Trend.P)
	}
	// The three §7 series run over the same years; one that was not evaluated
	// leaves its column blank.
	if n := max(len(ev.Bias), len(ev.Blockable), len(ev.Collab)); table(n > 0, "§7 extensions",
		"year", "institutional pkt share", "blockable share", "collab inflation") {
		for i := range n {
			var year int
			var bias, blockable, inflation string
			if i < len(ev.Bias) {
				year, bias = ev.Bias[i].Year, Pct(ev.Bias[i].InstPacketShare)
			}
			if i < len(ev.Blockable) {
				year, blockable = ev.Blockable[i].Year, Pct(ev.Blockable[i].Share)
			}
			if i < len(ev.Collab) {
				year, inflation = ev.Collab[i].Year, fmt.Sprintf("%.2fx", ev.Collab[i].InflationFactor)
			}
			row(fmt.Sprint(year), bias, blockable, inflation)
		}
	}
	if b := ev.Blocklist; table(b != nil, fmt.Sprintf("Blocklist staleness (%d)", pinned("blocklist")),
		"weeks old", "coverage", "institutional coverage") {
		for k := range b.HitRate {
			row(fmt.Sprint(k), Pct(b.HitRate[k]), Pct(b.InstHitRate[k]))
		}
	}
}
