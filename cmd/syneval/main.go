// Command syneval regenerates every table and figure of the paper's
// evaluation from the calibrated simulation: Table 1 and 2, Figures 1–10,
// and the §4–§7 scalar findings. It picks the input (simulate, or -archive),
// evaluates the selected rows of internal/analysis's experiment table, and
// renders that one Evaluation as the text report recorded in EXPERIMENTS.md,
// as the same sections in Markdown, as JSON, or as CSV series (one file per
// series family; the log names each file and the experiments that have none).
//
// Usage:
//
//	syneval                         # full evaluation at the default scale
//	syneval -scale 0.0005           # fast smoke evaluation
//	syneval -only table1,fig2       # selected experiments
//	syneval -only fig8 -json f      # the same selection, machine-readable
//	syneval -only fig8 -markdown f  # the same sections as the text, in Markdown
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"github.com/synscan/synscan/internal/analysis"
	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("syneval: ")

	seed := flag.Uint64("seed", 1, "simulation seed")
	scale := flag.Float64("scale", 0.002, "volume scale relative to the paper")
	telSize := flag.Int("telescope", 4096, "monitored address count")
	archiveIn := flag.String("archive", "", "read detected campaigns from this segment store directory instead of re-simulating (campaign-level experiments only: "+strings.Join(analysis.Keys(true), ",")+")")
	archiveOut := flag.String("archive-out", "", "persist the simulated decade's detected campaigns (with origins) to this segment store directory")
	only := flag.String("only", "", "comma-separated experiment list ("+strings.Join(analysis.Keys(false), ",")+"); empty = all the input can serve")
	jsonOut := flag.String("json", "", "write the evaluation as JSON to this path (instead of the text report)")
	csvDir := flag.String("csv", "", "write the evaluation's series as CSV files into this directory (instead of the text report)")
	mdOut := flag.String("markdown", "", "write the text report's sections as a Markdown document to this path (instead of the text report)")
	// One registry spans the whole decade: per-year pipelines aggregate into
	// it (each YearData additionally keeps its own snapshot). Nil when no
	// metrics sink was requested, which disables all instrumentation.
	reg, finish, err := obs.ParseFlags(obs.OnRequest)
	if err != nil {
		log.Fatal(err)
	}

	if *archiveIn != "" && *archiveOut != "" {
		log.Fatal("-archive (read) and -archive-out (write) are mutually exclusive")
	}
	keys := strings.FieldsFunc(strings.ToLower(*only), func(r rune) bool { return r == ',' || r == ' ' })
	for _, k := range keys {
		if analysis.Lookup(k) == nil { // before any simulation is spent on a typo
			log.Fatalf("-only: unknown experiment %q; valid keys: %s", k, strings.Join(analysis.Keys(false), ","))
		}
	}

	in := analysis.Input{
		Seed: *seed, Scale: *scale, TelescopeSize: *telSize,
		Collect: analysis.CollectConfig{Metrics: reg},
	}
	switch {
	case *archiveIn != "":
		camps, err := loadStore(*archiveIn, reg)
		if err != nil {
			log.Fatal(err)
		}
		// No simulation parameter applies to a store's campaigns.
		in = analysis.Input{TelescopeSize: camps[0].TelescopeSize, Campaigns: camps}
	case *archiveOut != "":
		w, err := archive.OpenSegmentDir(*archiveOut, archive.SegmentConfig{
			TelescopeSize: *telSize, Origins: true, Metrics: reg,
		})
		if err != nil {
			log.Fatal(err)
		}
		if n := len(w.SealedSegments()); n > 0 { // a second decade would count twice
			log.Fatalf("-archive-out %s already holds %d segments; name a new directory", *archiveOut, n)
		}
		if in.Years, err = analysis.Decade(*seed, *scale, *telSize, in.Collect); err != nil {
			log.Fatal(err)
		}
		for _, c := range analysis.CampaignsOf(in.Years) {
			if err := analysis.ArchiveYear(w, c); err != nil {
				log.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("archived %d years of campaigns to %s", len(in.Years), *archiveOut)
	}

	if *archiveIn == "" {
		log.Printf("evaluating at seed %d, scale %g, telescope %d...", *seed, *scale, *telSize)
	}
	ev, err := analysis.Evaluate(in, keys)
	if err != nil {
		log.Fatal(err)
	}
	for _, note := range ev.Skipped {
		log.Print(note)
	}

	toFile := func(path string, write func(io.Writer) error) {
		f, err := os.Create(path)
		if err == nil {
			if err = write(f); err == nil {
				err = f.Close()
			}
		}
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", path)
	}
	if *jsonOut != "" {
		toFile(*jsonOut, ev.WriteJSON)
	}
	if *csvDir != "" {
		if err := ev.WriteCSVDir(*csvDir); err != nil {
			log.Fatal(err)
		}
		files := analysis.CSVFiles(ev)
		var none []string
		for _, e := range analysis.Experiments {
			if name, ok := files[e.Key]; ok {
				log.Printf("wrote %s", filepath.Join(*csvDir, name))
			} else if e.Evaluated(ev) {
				none = append(none, e.Key)
			}
		}
		if len(none) > 0 {
			log.Printf("no CSV series for %s", strings.Join(none, ","))
		}
	}
	if *mdOut != "" {
		toFile(*mdOut, func(w io.Writer) error { report.Markdown(w, ev); return nil })
	}
	if *jsonOut == "" && *csvDir == "" && *mdOut == "" {
		report.Text(os.Stdout, ev)
	}

	if err := finish(); err != nil {
		log.Fatal(err)
	}
}

// loadStore reads every calibrated year's campaigns from the segment store
// at dir, which must be an existing directory whose segments are all
// readable (the catalog is strict) and hold at least one calibrated year.
func loadStore(dir string, reg *obs.Registry) ([]*analysis.Campaigns, error) {
	cat, err := archive.OpenCatalog(dir, archive.CatalogConfig{Metrics: reg})
	if err != nil {
		return nil, err
	}
	defer cat.Close()
	v := cat.View()
	defer v.Release()
	log.Printf("loading campaigns from %s (%d segments, %d scans)...", dir, v.Len(), v.NumScans())
	camps, err := analysis.CollectArchiveYears(v)
	if err != nil {
		return nil, err
	}
	if len(camps) == 0 {
		return nil, fmt.Errorf("-archive %s holds no campaigns of a calibrated year", dir)
	}
	return camps, nil
}
