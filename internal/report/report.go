// Package report renders analysis results: the aligned text tables and CDF
// dumps the commands print, and an Evaluation as the text report (Text) or
// as the same sections in Markdown syntax (Markdown). One set of section
// bodies, one per row of analysis.Experiments, serves both.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/synscan/synscan/internal/analysis"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/stats"
)

// Table is a simple aligned-column text table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.header) {
		cells = append(cells, "")
	}
	t.rows = append(t.rows, cells)
}

// WriteTo renders the table: columns padded to their widest cell, two
// spaces apart, and a dashed rule under the header.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.header))
	for _, row := range append([][]string{t.header}, t.rows...) {
		for i, c := range row {
			widths[i] = max(widths[i], len(c))
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		var l strings.Builder
		for i, c := range cells {
			if i > 0 {
				l.WriteString("  ")
			}
			l.WriteString(c + strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString(strings.TrimRight(l.String(), " ") + "\n")
	}
	line(t.header)
	rule := make([]string, len(widths))
	for i, n := range widths {
		rule[i] = strings.Repeat("-", n)
	}
	line(rule)
	for _, row := range t.rows {
		line(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteTo(&b)
	return b.String()
}

// Pct formats a fraction as a percentage.
func Pct(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }

// Count formats large counts compactly (12.3K, 4.5M).
func Count(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fK", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

func portList(ps []analysis.PortShare) string {
	parts := make([]string, 0, len(ps))
	for _, p := range ps {
		parts = append(parts, fmt.Sprintf("%d(%.1f%%)", p.Port, p.Share*100))
	}
	return strings.Join(parts, " ")
}

// CDF renders an ECDF at canonical probe points.
func CDF(w io.Writer, name string, e *stats.ECDF) {
	fmt.Fprintf(w, "%s (n=%d):\n", name, e.Len())
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		fmt.Fprintf(w, "  p%-4.0f %12.4g\n", q*100, e.Quantile(q))
	}
}

// PortLabel renders a port with its service name when one is well known
// ("3389/rdp", plain "9222" otherwise).
func PortLabel(port uint16) string {
	if name := packet.ServiceName(port); name != "" {
		return fmt.Sprintf("%d/%s", port, name)
	}
	return fmt.Sprint(port)
}

// portMapGlyphs maps coverage density to a shade ramp.
var portMapGlyphs = []byte(" .:oO@")

// PortMap renders per-bucket coverage densities as a shade string.
func PortMap(density []float64) string {
	out := make([]byte, len(density))
	for i, d := range density {
		idx := int(d * float64(len(portMapGlyphs)))
		if idx >= len(portMapGlyphs) {
			idx = len(portMapGlyphs) - 1
		}
		if d > 0 && idx == 0 {
			idx = 1 // any coverage at all must be visible
		}
		out[i] = portMapGlyphs[idx]
	}
	return string(out)
}

// Histogram renders counts per label, sorted descending.
func Histogram(w io.Writer, name string, m map[string]uint64) {
	labels := make([]string, 0, len(m))
	var top uint64
	for k, v := range m {
		labels = append(labels, k)
		top = max(top, v)
	}
	sort.Slice(labels, func(i, j int) bool {
		if vi, vj := m[labels[i]], m[labels[j]]; vi != vj {
			return vi > vj
		}
		return labels[i] < labels[j]
	})
	fmt.Fprintf(w, "%s:\n", name)
	for _, k := range labels {
		fmt.Fprintf(w, "  %-20s %10d %s\n", k, m[k], strings.Repeat("#", int(m[k]*40/max(top, 1))))
	}
}
