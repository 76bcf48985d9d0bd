package report

import (
	"strings"
	"testing"

	"github.com/synscan/synscan/internal/analysis"
	"github.com/synscan/synscan/internal/collab"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/stats"
	"github.com/synscan/synscan/internal/tools"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("a", "bbbb", "c")
	tb.AddRow("xxxxxx", "y")
	tb.AddRow("1", "2", "3")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "------") {
		t.Fatalf("separator missing: %q", lines[1])
	}
	// Column "bbbb" must start at the same offset in every row.
	idx := strings.Index(lines[0], "bbbb")
	if idx < 0 {
		t.Fatal("header missing")
	}
	if lines[2][idx] != 'y' {
		t.Fatalf("misaligned row: %q", lines[2])
	}
}

func TestPctCount(t *testing.T) {
	if Pct(0.1234) != "12.34%" {
		t.Fatalf("Pct = %q", Pct(0.1234))
	}
	cases := map[float64]string{
		5:      "5",
		1500:   "1.5K",
		2.5e6:  "2.50M",
		3.1e9:  "3.10B",
		999:    "999",
		1000:   "1.0K",
		999999: "1000.0K",
	}
	for in, want := range cases {
		if got := Count(in); got != want {
			t.Errorf("Count(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestRenderTable1(t *testing.T) {
	rows := []analysis.Table1Row{{
		Year:              2020,
		PacketsPerDay:     1.2e6,
		ScansPerMonth:     400,
		TopPortsByPackets: []analysis.PortShare{{Port: 3389, Share: 0.26}},
		TopPortsBySources: []analysis.PortShare{{Port: 80, Share: 0.35}},
		TopPortsByScans:   []analysis.PortShare{{Port: 80, Share: 0.16}},
		ToolShares: map[tools.Tool]float64{
			tools.ToolMasscan: 0.2, tools.ToolZMap: 0.13,
		},
	}}
	var b strings.Builder
	Text(&b, &analysis.Evaluation{Table1: rows})
	out := b.String()
	for _, want := range []string{"2020", "1.20M", "3389(26.0%)", "20.00%", "13.00%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTable2(t *testing.T) {
	var b strings.Builder
	Text(&b, &analysis.Evaluation{Table2: []analysis.Table2Row{
		{Type: inetmodel.TypeInstitutional, Sources: 0.0016, Scans: 0.0745, Packets: 0.3263},
	}})
	out := b.String()
	if !strings.Contains(out, "Institutional") || !strings.Contains(out, "32.63%") {
		t.Fatalf("Table2 output:\n%s", out)
	}
}

func TestRenderCDF(t *testing.T) {
	var b strings.Builder
	CDF(&b, "speeds", stats.NewECDF([]float64{1, 2, 3, 4, 100}))
	if !strings.Contains(b.String(), "p50") {
		t.Fatalf("CDF output:\n%s", b.String())
	}
}

func TestRenderFigures(t *testing.T) {
	var b strings.Builder
	Text(&b, &analysis.Evaluation{Figure4: map[int][]analysis.Figure4Port{2020: {{
		Port: 80, Packets: 1000,
		ToolShare: map[tools.Tool]float64{tools.ToolZMap: 0.5, tools.ToolUnknown: 0.5},
	}}}})
	if !strings.Contains(b.String(), "Figure 4") || !strings.Contains(b.String(), "50.00%") {
		t.Fatalf("Figure4:\n%s", b.String())
	}

	b.Reset()
	Text(&b, &analysis.Evaluation{Figure5: []analysis.Figure5Port{{
		Port: 443, Scans: 10,
		TypeShare: map[inetmodel.ScannerType]float64{inetmodel.TypeInstitutional: 0.41},
	}}})
	if !strings.Contains(b.String(), "443") || !strings.Contains(b.String(), "41.00%") {
		t.Fatalf("Figure5:\n%s", b.String())
	}

	b.Reset()
	Text(&b, &analysis.Evaluation{Figure7: []analysis.Figure7Row{{
		Type: inetmodel.TypeInstitutional, Scans: 5, MeanSpeedPPS: 90000,
		MedianSpeedPPS: 50000, Above1000PPS: 0.84, MeanCoverage: 0.4,
	}}})
	if !strings.Contains(b.String(), "84.00%") {
		t.Fatalf("Figure7:\n%s", b.String())
	}

	b.Reset()
	Text(&b, &analysis.Evaluation{Figure8: []analysis.Figure8Row{{
		Org: "Censys", Kind: inetmodel.KindCompany, PortsCovered: 65536, FullRange: true, Packets: 12345,
	}}})
	if !strings.Contains(b.String(), "Censys") || !strings.Contains(b.String(), "yes") {
		t.Fatalf("Figure8:\n%s", b.String())
	}

	b.Reset()
	Text(&b, &analysis.Evaluation{Fig910: []analysis.Figure910Row{{Org: "Onyphe", Ports2023: 29000, Ports2024: 65536}}})
	if !strings.Contains(b.String(), "+36536") {
		t.Fatalf("Figure910:\n%s", b.String())
	}
}

func TestHistogramSortedBars(t *testing.T) {
	var b strings.Builder
	Histogram(&b, "tools", map[string]uint64{"a": 1, "b": 10, "c": 5})
	out := b.String()
	ia, ib, ic := strings.Index(out, "a "), strings.Index(out, "b "), strings.Index(out, "c ")
	if !(ib < ic && ic < ia) {
		t.Fatalf("histogram not sorted desc:\n%s", out)
	}
	if !strings.Contains(out, "####") {
		t.Fatal("bars missing")
	}
}

func TestPortMap(t *testing.T) {
	density := []float64{0, 0.001, 0.2, 0.5, 0.99, 1.0}
	got := PortMap(density)
	if len(got) != 6 {
		t.Fatalf("length %d", len(got))
	}
	if got[0] != ' ' {
		t.Fatalf("zero density must be blank: %q", got)
	}
	if got[1] == ' ' {
		t.Fatalf("tiny density must be visible: %q", got)
	}
	if got[5] != '@' {
		t.Fatalf("full density must be darkest: %q", got)
	}
	// Monotone shading.
	rank := map[byte]int{' ': 0, '.': 1, ':': 2, 'o': 3, 'O': 4, '@': 5}
	for i := 1; i < len(got); i++ {
		if rank[got[i]] < rank[got[i-1]] {
			t.Fatalf("shading not monotone: %q", got)
		}
	}
}

func TestMarkdown(t *testing.T) {
	ev := &analysis.Evaluation{
		Seed: 1, Scale: 0.001, TelescopeSize: 2048,
		Table1: []analysis.Table1Row{{Year: 2020, PacketsPerDay: 1000,
			ToolShares: map[tools.Tool]float64{tools.ToolZMap: 0.13}}},
		Table2:    []analysis.Table2Row{{Type: inetmodel.TypeInstitutional, Packets: 0.32}},
		Figure1:   &analysis.Figure1Result{PeakFactor: 12, PeakDay: 10},
		Figure2:   &analysis.Figure2Result{PacketsTwofold: 0.6, Stable: 0.28},
		Figure3:   []*analysis.Figure3Result{{Year: 2020, SinglePortShare: 0.74}},
		Figure7:   []analysis.Figure7Row{{Type: inetmodel.TypeInstitutional, Scans: 5}},
		Figure8:   []analysis.Figure8Row{{Org: "Censys", PortsCovered: 65536}},
		Sec51:     []*analysis.Sec51Result{{Year: 2020, CoScan80_8080: 0.87}},
		Sec63:     []*analysis.Sec63Result{{Year: 2020, MedianPPS: map[tools.Tool]float64{tools.ToolZMap: 25000}}},
		Bias:      []*analysis.BiasResult{{Year: 2020, InstPacketShare: 0.2}},
		Blockable: []*analysis.BlockableResult{{Year: 2020, Share: 0.85}},
		Collab:    []collab.Stats{{RawScans: 10, LogicalScans: 8, InflationFactor: 1.25}},
		Blocklist: &analysis.BlocklistResult{
			HitRate: []float64{1, 0.6}, InstHitRate: []float64{1, 0.99}, Weeks: 2},
	}
	var b strings.Builder
	Markdown(&b, ev)
	out := b.String()
	for _, want := range []string{"# synscan evaluation", "| year |", "Censys",
		"Institutional", "87.00%", "1.25x", "| --- |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

// TestSpeedPortsYearOrder: the §6.3 section lists its speed-vs-ports lines in
// ascending year, the same bytes on every call.
func TestSpeedPortsYearOrder(t *testing.T) {
	ev := &analysis.Evaluation{
		Sec63: []*analysis.Sec63Result{{Year: 2020}},
		SpeedPorts: map[int]stats.PearsonResult{
			2022: {R: 0.3}, 2018: {R: 0.1}, 2020: {R: 0.2}, 2024: {R: 0.4},
		},
	}
	var first strings.Builder
	Text(&first, ev)
	out := first.String()
	at := []int{strings.Index(out, "(2018)"), strings.Index(out, "(2020)"),
		strings.Index(out, "(2022)"), strings.Index(out, "(2024)")}
	for i := 1; i < len(at); i++ {
		if at[i-1] < 0 || at[i] < at[i-1] {
			t.Fatalf("speed vs ports lines not in year order:\n%s", out)
		}
	}
	for range 20 {
		var again strings.Builder
		Text(&again, ev)
		if again.String() != out {
			t.Fatalf("§6.3 renders differently across calls:\n%s\n---\n%s", out, again.String())
		}
	}
}

// TestMarkdownSections: Markdown renders every evaluated section, free lines
// in a closed fence and tables as pipe tables.
func TestMarkdownSections(t *testing.T) {
	ev := &analysis.Evaluation{
		Sec42:   []analysis.NormalizedOrigin{{Country: "NL", RawShare: 0.02, AddressShare: 0.025, Intensity: 0.8}},
		Figure5: []analysis.Figure5Port{{Port: 443, Scans: 10}},
		Vantage: &analysis.VantageResult{PacketRatio: 0.998},
		Sec64:   &analysis.Sec64Result{Coverages: []float64{0.004, 0.006, 1}},
	}
	var b strings.Builder
	Markdown(&b, ev)
	out := b.String()
	for _, want := range []string{
		"\n## §4.2 ", "\n## Figure 5 ", "\n## §7 — vantage-point comparison", "\n## §6.4 ",
		"\n| country | packet share | address share | intensity |\n| --- | --- | --- | --- |\n| NL |",
		"\n```\npacket ratio 0.998", "zmap coverage (n=3):\n", "p99",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "```\n"); n%2 != 0 || !strings.HasSuffix(out, "```\n") {
		t.Errorf("unbalanced fences (%d):\n%s", n, out)
	}
	b.Reset()
	Markdown(&b, &analysis.Evaluation{Figure8: []analysis.Figure8Row{{Org: "a|b"}}})
	if !strings.Contains(b.String(), `| a\|b |`) {
		t.Errorf("a pipe in a cell is not escaped:\n%s", b.String())
	}
}

// TestMarkdownPortMapEmptyEnds: a Figure 8 map whose first and last buckets
// are empty keeps all 64 buckets in place in a Markdown cell, where a
// renderer would trim blanks, and stays blank-padded in the text report.
func TestMarkdownPortMapEmptyEnds(t *testing.T) {
	row := analysis.Figure8Row{Org: "UCSD"}
	for i := 3; i < len(row.Density)-3; i++ {
		row.Density[i] = 1
	}
	ev := &analysis.Evaluation{Figure8: []analysis.Figure8Row{row}}
	inner := strings.Repeat("@", len(row.Density)-6)
	var md, text strings.Builder
	Markdown(&md, ev)
	Text(&text, ev)
	if want := "| ···" + inner + "··· |"; !strings.Contains(md.String(), want) {
		t.Errorf("markdown port map not padded visibly, want %q:\n%s", want, md.String())
	}
	if want := "   " + inner + "\n"; !strings.Contains(text.String(), want) {
		t.Errorf("text port map changed, want %q:\n%s", want, text.String())
	}
}
