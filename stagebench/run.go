package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// sizes are a run's input sizes; -quick shrinks them for a smoke run whose
// numbers are not comparable with a full one.
type sizes struct {
	scale      float64 // scenario scale of the ingest capture
	storeScale float64 // scenario scale of the query store's ten years
	setupReps  int     // fresh repetitions of set-up
	warmup     int     // slices run and discarded before timing
	minTimed   int     // slices timed even when --seconds is over
}

var (
	fullSizes  = sizes{scale: 0.00056, storeScale: 0.00106, setupReps: 4, warmup: 5, minTimed: 20}
	quickSizes = sizes{scale: 0.00003, storeScale: 0.0001, setupReps: 1, warmup: 1, minTimed: 3}
)

// env is what a workload is given: the seed its inputs derive from, the
// sizes, and a directory of its own for the stores it writes.
type env struct {
	seed    uint64
	sizes   sizes
	workdir string
}

// sliceResult is one slice seen from outside.
type sliceResult struct {
	wall     time.Duration
	alloc    uint64             // heap bytes allocated while the clock ran
	ok       bool               // outputs matched the reference
	outBytes int64              // sealed segment bytes, or result JSON bytes
	counts   map[string]float64 // what the layers report having done
}

// sliceClock brackets the timed part of a slice: wall time and heap bytes
// allocated. What a slice does before start and after stop — building fresh
// state, checking outputs — is the harness's and counts for neither.
type sliceClock struct {
	t0 time.Time
	a0 uint64
}

func startClock() sliceClock { return sliceClock{a0: heapAllocBytes(), t0: time.Now()} }

func (c sliceClock) stop(res *sliceResult) {
	res.wall = time.Since(c.t0)
	res.alloc = heapAllocBytes() - c.a0
}

// load is one of the benchmark's four workloads. setup may run several
// times; each call replaces the state the previous one built.
type load interface {
	// setup is the set-up a user of the program pays, done by repo code. It
	// returns how long that took — setup_s — and the times of its stages, if
	// it has any; input generation by the harness is not part of either.
	setup() (seconds float64, stages map[string]float64, err error)
	// prepare computes the reference outputs; it is not timed.
	prepare() error
	// items is the number of items one slice offers the program.
	items() int
	// slice runs one fixed unit of work and checks its outputs.
	slice(tr *tracer) (sliceResult, error)
	// shadow costs the layers the harness cannot call directly.
	shadow(tr *tracer) (map[string]float64, error)
	// layers computes the workload's per-layer metrics from the ledger of
	// the fastest traced slice, the slice's counts and the shadow pass.
	layers(best ledger, last sliceResult, shadow map[string]float64) map[string]float64
	inputs() map[string]float64
	close()
}

func newWorkload(name string, e *env) (load, error) {
	switch name {
	case "ingest_oneway":
		return &ingestLoad{e: e}, nil
	case "ingest_reactive":
		return &ingestLoad{e: e, reactive: true}, nil
	case "query_fullscan":
		return newQueryLoad(e, false)
	case "query_selective":
		return newQueryLoad(e, true)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runConfig is one invocation: a workload, a seed, a measuring time.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	workdir  string
	traceDir string
}

// runRecord is everything one run measured. Metrics holds the gated
// end-to-end metrics of an untraced run or the per-layer metrics of a traced
// one; the rest lets a noisy run be recognised after the fact.
type runRecord struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	RunSeconds float64            `json:"run_seconds"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
	Inputs     map[string]float64 `json:"inputs"`
	Slices     struct {
		Warmup int `json:"warmup"`
		Timed  int `json:"timed"`
		Traced int `json:"traced,omitempty"`
	} `json:"slices"`
	StoreFS     string      `json:"store_fs"`
	HWMReset    bool        `json:"hwm_reset"`
	Diagnostics diagnostics `json:"diagnostics"`
}

// diagnostics are written to the record and never gated: on a shared
// two-core runner they do not repeat within a tenth.
type diagnostics struct {
	SliceMs      []float64 `json:"slice_ms"`
	SlicePeakMB  []float64 `json:"slice_peak_mb"`
	SliceP50Ms   float64   `json:"slice_p50_ms"`
	SliceP95Ms   float64   `json:"slice_p95_ms"`
	SliceMaxMs   float64   `json:"slice_max_ms"`
	MeanRatePerS float64   `json:"mean_rate_per_s"`
	WarmupMs     []float64 `json:"warmup_ms"`
	SetupS       []float64 `json:"setup_s"`
	TraceFile    string    `json:"trace_file,omitempty"`
}

// quantile interpolates linearly in sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// run measures one workload in this process, in a scratch directory of its
// own that is gone when it returns.
func run(cfg runConfig) (*runRecord, error) {
	sz := fullSizes
	if cfg.quick {
		sz = quickSizes
	}
	workdir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)

	w, err := newWorkload(cfg.workload, &env{seed: cfg.seed, sizes: sz, workdir: workdir})
	if err != nil {
		return nil, err
	}
	defer w.close()
	rec, err := measure(cfg, w, sz)
	if rec != nil {
		rec.StoreFS = fsName(workdir)
	}
	return rec, err
}

// measure is the run model: set-up several times over, the reference
// outputs, then slices back to back until the time is up. One goroutine
// drives the program in a closed loop: the next slice starts when the
// previous one has been checked.
func measure(cfg runConfig, w load, sz sizes) (*runRecord, error) {
	rec := &runRecord{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, RunSeconds: cfg.seconds}
	var err error

	// Set-up runs several times from scratch and the fastest repetition
	// counts: the first also pays for page faults and heap growth, and
	// interference only ever adds time. Only the first runs here. The others
	// are spread over the measured phase, because interference comes in
	// stretches longer than all repetitions back to back would take.
	var fastest map[string]float64
	setup := func() error {
		runtime.GC()
		seconds, stages, err := w.setup()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if s := rec.Diagnostics.SetupS; len(s) == 0 || seconds < slices.Min(s) {
			fastest = stages
		}
		rec.Diagnostics.SetupS = append(rec.Diagnostics.SetupS, seconds)
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	rec.Inputs = w.inputs()

	// From here on the process's peak memory is the measured phase's: what
	// set-up and the reference computation needed is given back first.
	debug.FreeOSMemory()
	rec.HWMReset = resetPeakMemory()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var plain, traced []float64 // slice wall times, seconds
	var peaks []float64         // resident high-water mark of each untraced slice, MB
	var ledgers []ledger
	var last sliceResult
	var allocBytes uint64
	var before procStats
	for n := 0; ; n++ {
		warm := n < sz.warmup
		elapsed := time.Since(start)
		if !warm && len(plain) >= sz.minTimed && elapsed > window {
			break
		}
		if reps := len(rec.Diagnostics.SetupS); reps < sz.setupReps && elapsed > window*time.Duration(reps)/time.Duration(sz.setupReps) {
			// The repetition rebuilds the same inputs from the same seed,
			// so the slices after it do the work of the slices before it.
			if err := setup(); err != nil {
				return nil, err
			}
			debug.FreeOSMemory()
		}
		if n == sz.warmup {
			before = readProcStats()
		}
		// A traced run alternates untraced and traced slices, so both see
		// the same machine and their difference is the tracing overhead.
		useTracer := cfg.trace && !warm && n%2 == 1
		runtime.GC()
		if rec.HWMReset {
			resetPeakMemory()
		}
		var res sliceResult
		if useTracer {
			res, err = w.slice(tr)
		} else {
			res, err = w.slice(nil)
		}
		if err != nil {
			return nil, fmt.Errorf("slice %d: %w", n, err)
		}
		rec.Attempted++
		if !res.ok {
			rec.Failed++
		}
		last = res
		switch {
		case warm:
			rec.Diagnostics.WarmupMs = append(rec.Diagnostics.WarmupMs, res.wall.Seconds()*1e3)
		case useTracer:
			traced = append(traced, res.wall.Seconds())
			ledgers = append(ledgers, tr.finishSlice(res.wall))
		default:
			plain = append(plain, res.wall.Seconds())
			allocBytes += res.alloc
			peaks = append(peaks, float64(peakMemoryBytes())/(1<<20))
		}
	}
	after := readProcStats()
	rec.Slices.Warmup, rec.Slices.Timed, rec.Slices.Traced = sz.warmup, len(plain), len(traced)

	items := float64(w.items())
	sorted := sortedCopy(plain)
	var total float64
	for _, s := range plain {
		total += s
		rec.Diagnostics.SliceMs = append(rec.Diagnostics.SliceMs, s*1e3)
	}
	rec.Diagnostics.SlicePeakMB = peaks
	rec.Diagnostics.SliceP50Ms = quantile(sorted, 0.5) * 1e3
	rec.Diagnostics.SliceP95Ms = quantile(sorted, 0.95) * 1e3
	rec.Diagnostics.SliceMaxMs = sorted[len(sorted)-1] * 1e3
	rec.Diagnostics.MeanRatePerS = items * float64(len(plain)) / total

	if !cfg.trace {
		rec.Metrics = map[string]float64{
			"setup_s":          slices.Min(rec.Diagnostics.SetupS),
			"throughput_per_s": items / sorted[0],
			"peak_mem_mb":      quantile(sortedCopy(peaks), 0.5),
			"alloc_b_per_item": float64(allocBytes) / (items * float64(len(plain))),
			"out_b_per_item":   float64(last.outBytes) / items,
		}
		rec.Correct = rec.Failed == 0
		return rec, nil
	}

	shadow, err := w.shadow(tr)
	if err != nil {
		return nil, fmt.Errorf("shadow pass: %w", err)
	}
	best := 0
	for i := range traced {
		if traced[i] < traced[best] {
			best = i
		}
	}
	m := w.layers(ledgers[best], last, shadow)
	for k, v := range fastest {
		m[k] = v
	}
	cov := make([]float64, len(ledgers))
	for i := range ledgers {
		cov[i] = ledgers[i].coverage
	}
	m["ledger.coverage"] = quantile(sortedCopy(cov), 0.5)
	m["trace.overhead_share"] = traced[best]/sorted[0] - 1
	slices := float64(len(plain) + len(traced))
	cpu := after.cpuSeconds - before.cpuSeconds
	m["proc.cpu_us_per_item"] = cpu / (items * slices) * 1e6
	m["proc.gc_cycles_per_slice"] = float64(after.gcCycles-before.gcCycles) / slices
	if cpu > 0 {
		m["proc.gc_cpu_share"] = (after.gcCPUSeconds - before.gcCPUSeconds) / cpu
	}
	rec.Metrics = m

	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return nil, err
	}
	rec.Diagnostics.TraceFile = filepath.Join(cfg.traceDir, cfg.workload+".trace.jsonl")
	if err := tr.writeTrace(rec.Diagnostics.TraceFile); err != nil {
		return nil, err
	}
	// The ledger is only worth reading while the layers account for the
	// slice: a traced pass whose coverage has drifted fails.
	rec.Correct = rec.Failed == 0 && coverageOK(m["ledger.coverage"])
	return rec, nil
}

func coverageOK(c float64) bool { return c >= 0.9 && c <= 1.1 }
