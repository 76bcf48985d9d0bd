// Command stagebench is the repository's benchmark: four workloads over the
// ingest and query paths, timed in fixed slices, with a per-layer stage
// ledger measured from outside in a separate traced pass. BENCHMARK.json at
// the root of the repository declares what it measures; README.md in this
// directory describes the run model.
//
//	bash stagebench/run.sh --workload ingest_oneway --seed 1 --seconds 26 --trace 0
//	bash stagebench/run.sh -runs 10 -out after.json      # every workload, ten seeds
//	bash stagebench/run.sh -quick -out -                 # smoke run, a few seconds
//	bash stagebench/run.sh --compare before.json after.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// header says where and how a record was measured, so that two records can
// be told comparable or not.
type header struct {
	Tool       string `json:"tool"`
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Quick      bool   `json:"quick,omitempty"`
}

// record is the file -out writes and --compare reads: one header and any
// number of runs, each carrying its own seed, run length and input sizes.
type record struct {
	Header header      `json:"header"`
	Runs   []runRecord `json:"runs"`
}

func newHeader(quick bool) header {
	return header{
		Tool:       "stagebench",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Quick:      quick,
	}
}

func writeRecord(path string, rec *record) error {
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// The runner is started from the root of a checkout: the declaration is the
// file next to it, and stores and traces go under the git-ignored build
// directory.
const specFile = "BENCHMARK.json"

var scratchDir = filepath.Join(".bench_build", "stagebench")

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	out      string
	runs     int
	compare  bool

	// Not flags: the tests point these elsewhere.
	specPath string
	workdir  string
}

func main() {
	o := options{specPath: specFile, workdir: scratchDir}
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process (default: every declared workload, each in a process of its own)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json; 0.5 with -quick)")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics instead of end-to-end ones")
	flag.BoolVar(&o.quick, "quick", false, "smoke mode: small inputs, a few seconds, numbers not comparable with full runs")
	flag.StringVar(&o.out, "out", "", `write the record here ("-" = standard output)`)
	flag.IntVar(&o.runs, "runs", 1, "untraced runs per workload when running every workload, on seeds seed, seed+1, …")
	flag.BoolVar(&o.compare, "compare", false, "compare two records: stagebench --compare A.json B.json")
	flag.Parse()

	if err := mainErr(&o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "stagebench:", err)
		os.Exit(1)
	}
}

func mainErr(o *options, args []string) error {
	sp, err := loadSpec(o.specPath)
	if err != nil {
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("--compare takes two record files")
		}
		worse, err := compareFiles(os.Stdout, sp, args[0], args[1])
		if err != nil {
			return err
		}
		if worse > 0 {
			return fmt.Errorf("%d metric(s) worse beyond their bound", worse)
		}
		return nil
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %v", args)
	}
	if o.seconds == 0 {
		o.seconds = float64(sp.RunSeconds)
		if o.quick {
			o.seconds = 0.5
		}
	}
	if o.workload == "" {
		return suite(o, sp)
	}
	return single(o, sp)
}

// single measures one workload in this process and prints the result line.
func single(o *options, sp *spec) error {
	if !sp.hasWorkload(o.workload) {
		return fmt.Errorf("workload %q is not declared in %s", o.workload, o.specPath)
	}
	rr, err := run(runConfig{
		workload: o.workload, seed: o.seed, seconds: o.seconds, trace: o.trace == 1,
		quick: o.quick, workdir: o.workdir, traceDir: filepath.Join(o.workdir, "traces"),
	})
	if err != nil {
		return err
	}
	metrics, err := sp.render(rr.Trace, rr.Metrics)
	if err != nil {
		return err
	}
	if o.out != "" && o.out != "-" {
		if err := writeRecord(o.out, &record{Header: newHeader(o.quick), Runs: []runRecord{*rr}}); err != nil {
			return err
		}
	}
	printSummary(os.Stderr, sp, rr)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rr.Correct, rr.Attempted, rr.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !rr.Correct {
		return fmt.Errorf("%s: %d of %d slices failed their output check, or the ledger lost coverage", rr.Workload, rr.Failed, rr.Attempted)
	}
	return nil
}

// printSummary prints every metric of a run by name, with its unit.
func printSummary(w io.Writer, sp *spec, rr *runRecord) {
	pass := "end-to-end"
	if rr.Trace {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "%s seed %d, %s: %d slices attempted, %d failed, %d timed after %d warm-up\n",
		rr.Workload, rr.Seed, pass, rr.Attempted, rr.Failed, rr.Slices.Timed+rr.Slices.Traced, rr.Slices.Warmup)
	for _, m := range sp.declared(rr.Trace) {
		if v, ok := rr.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	if !rr.Trace {
		d := rr.Diagnostics
		fmt.Fprintf(w, "  diagnostics (not gated): slice p95 %.2f ms, max %.2f ms, mean rate %.6g /s, set-up %v s\n",
			d.SliceP95Ms, d.SliceMaxMs, d.MeanRatePerS, d.SetupS)
	}
}

// suite runs every declared workload, each run in a fresh process: o.runs
// untraced runs on consecutive seeds, then one traced pass on the first.
func suite(o *options, sp *spec) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	rec := record{Header: newHeader(o.quick)}
	child := func(workload string, seed uint64, trace int) error {
		tmp := filepath.Join(o.workdir, fmt.Sprintf("run-%d.json", os.Getpid()))
		defer os.Remove(tmp)
		args := []string{
			"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
			"-out", tmp,
		}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
		}
		one, err := readRecord(tmp)
		if err != nil {
			return err
		}
		rec.Runs = append(rec.Runs, one.Runs...)
		return nil
	}
	for _, w := range sp.Workloads {
		for i := 0; i < o.runs; i++ {
			if err := child(w.Name, o.seed+uint64(i), 0); err != nil {
				return err
			}
		}
		if err := child(w.Name, o.seed, 1); err != nil {
			return err
		}
	}
	if o.out == "" {
		o.out = "-"
	}
	return writeRecord(o.out, &rec)
}
