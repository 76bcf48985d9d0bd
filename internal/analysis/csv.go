package analysis

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"

	"github.com/synscan/synscan/internal/tools"
)

// csvFile is one CSV series family: the experiment it exports, its file
// name, and its header followed by its rows.
type csvFile struct {
	key, name string
	rows      [][]string
}

// csvFiles lays out ev's CSV series families in experiment-table order; a
// family that was not evaluated holds its header alone.
func (ev *Evaluation) csvFiles() []csvFile {
	ff := func(v float64) string { return fmt.Sprintf("%g", v) }
	var files []csvFile
	// begin starts a family and returns what appends a row to it.
	begin := func(key, name string, header ...string) func(cells ...string) {
		i := len(files)
		files = append(files, csvFile{key, name, [][]string{header}})
		return func(cells ...string) { files[i].rows = append(files[i].rows, cells) }
	}

	row := begin("table1", "table1.csv", "year", "packets_per_day", "scans_per_month", "sources", "masscan", "nmap", "mirai", "zmap")
	for _, r := range ev.Table1 {
		row(fmt.Sprint(r.Year), ff(r.PacketsPerDay), ff(r.ScansPerMonth), fmt.Sprint(r.DistinctSources),
			ff(r.ToolShares[tools.ToolMasscan]), ff(r.ToolShares[tools.ToolNMap]),
			ff(r.ToolShares[tools.ToolMirai]), ff(r.ToolShares[tools.ToolZMap]))
	}
	row = begin("table2", "table2.csv", "type", "sources", "scans", "packets")
	for _, r := range ev.Table2 {
		row(r.Type.String(), ff(r.Sources), ff(r.Scans), ff(r.Packets))
	}
	row = begin("fig1", "figure1.csv", "day", "relative_activity")
	if ev.Figure1 != nil {
		for d, v := range ev.Figure1.RelativeActivity {
			row(fmt.Sprint(d), ff(v))
		}
	}
	row = begin("fig2", "figure2_packet_ratios.csv", "weekly_change_factor")
	if ev.Figure2 != nil {
		for _, v := range ev.Figure2.PacketRatios {
			row(ff(v))
		}
	}
	row = begin("fig3", "figure3.csv", "year", "single_port", "three_plus", "five_plus")
	for _, r := range ev.Figure3 {
		row(fmt.Sprint(r.Year), ff(r.SinglePortShare), ff(r.ThreePlusShare), ff(r.FivePlusShare))
	}
	row = begin("fig8", "figure8.csv", "org", "ports", "packets")
	for _, r := range ev.Figure8 {
		row(r.Org, fmt.Sprint(r.PortsCovered), fmt.Sprint(r.Packets))
	}
	row = begin("sec51", "sec51.csv", "year", "privileged_coverage", "coscan_80_8080", "three_plus", "services_scans_r")
	for _, r := range ev.Sec51 {
		row(fmt.Sprint(r.Year), ff(r.PrivilegedCoverage), ff(r.CoScan80_8080), ff(r.ThreePlusShare), ff(r.ServicesScansR.R))
	}
	row = begin("sec63", "sec63.csv", "year", "zmap_median", "masscan_median", "nmap_median", "mirai_median", "top100_mean")
	for _, r := range ev.Sec63 {
		row(fmt.Sprint(r.Year), ff(r.MedianPPS[tools.ToolZMap]), ff(r.MedianPPS[tools.ToolMasscan]),
			ff(r.MedianPPS[tools.ToolNMap]), ff(r.MedianPPS[tools.ToolMirai]), ff(r.Top100MeanPPS))
	}
	row = begin("blocklist", "blocklist.csv", "weeks_old", "hit_rate", "inst_hit_rate")
	if b := ev.Blocklist; b != nil {
		for k := range b.HitRate {
			row(fmt.Sprint(k), ff(b.HitRate[k]), ff(b.InstHitRate[k]))
		}
	}
	row = begin("collab", "collab.csv", "year", "raw_scans", "logical_scans", "inflation")
	for _, st := range ev.Collab {
		row(fmt.Sprint(st.Year), fmt.Sprint(st.RawScans), fmt.Sprint(st.LogicalScans), ff(st.InflationFactor))
	}
	return files
}

// CSVFiles names the file WriteCSVDir writes for each experiment of ev that
// has a CSV series, by experiment key.
func CSVFiles(ev *Evaluation) map[string]string {
	names := map[string]string{}
	for _, f := range ev.csvFiles() {
		if len(f.rows) > 1 {
			names[f.key] = f.name
		}
	}
	return names
}

// WriteCSVDir exports the evaluation's series as CSV files — gnuplot/pandas-
// ready data for replotting the paper's figures. One file per series family
// is written into dir (created if missing); a family that was not evaluated
// has no rows and gets no file (CSVFiles names those written).
func (ev *Evaluation) WriteCSVDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range ev.csvFiles() {
		if len(f.rows) == 1 {
			continue // not evaluated
		}
		var buf bytes.Buffer
		if err := csv.NewWriter(&buf).WriteAll(f.rows); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, f.name), buf.Bytes(), 0o666); err != nil {
			return err
		}
	}
	return nil
}
