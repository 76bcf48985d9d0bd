package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/core"
)

const specPath = "../BENCHMARK.json"

func quickEnv(t *testing.T, seed uint64) *env {
	t.Helper()
	return &env{seed: seed, sizes: quickSizes, workdir: t.TempDir()}
}

func quickRun(t *testing.T, workload string, seed uint64, trace bool) *runRecord {
	t.Helper()
	dir := t.TempDir()
	rr, err := run(runConfig{
		workload: workload, seed: seed, seconds: 0.2, trace: trace, quick: true,
		workdir: dir, traceDir: filepath.Join(dir, "traces"),
	})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	return rr
}

func campaignDigest(c *campaigns) [sha256.Size]byte {
	h := sha256.New()
	for _, sc := range c.scans {
		digestScan(h, sc)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// Equal seeds must give byte-identical inputs; another seed must not.
func TestInputsFollowTheSeed(t *testing.T) {
	render := func(seed uint64, reactive bool) *capture {
		s, err := newScenario(seed, quickSizes.scale)
		if err != nil {
			t.Fatal(err)
		}
		return renderCapture(s, seed, reactive, nil)
	}
	for _, reactive := range []bool{false, true} {
		a, b, other := render(7, reactive), render(7, reactive), render(8, reactive)
		if !bytes.Equal(a.data, b.data) || len(a.times) != len(b.times) {
			t.Errorf("reactive=%v: equal seeds rendered different captures", reactive)
		}
		if bytes.Equal(a.data, other.data) {
			t.Errorf("reactive=%v: seeds 7 and 8 rendered the same capture", reactive)
		}
		if a.junk == 0 {
			t.Errorf("reactive=%v: capture holds no undecodable frames", reactive)
		}
	}

	decade := func(seed uint64) *campaigns {
		c, err := genCampaigns(seed, quickSizes.storeScale)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ca, cb, cother := decade(7), decade(7), decade(8)
	if campaignDigest(ca) != campaignDigest(cb) {
		t.Error("equal seeds generated different campaigns")
	}
	if campaignDigest(ca) == campaignDigest(cother) {
		t.Error("seeds 7 and 8 generated the same campaigns")
	}
	if strings.Join(selectiveSet(7, ca), "\n") != strings.Join(selectiveSet(7, cb), "\n") {
		t.Error("equal seeds derived different selective queries")
	}
	if strings.Join(selectiveSet(7, ca), "\n") == strings.Join(selectiveSet(8, ca), "\n") {
		t.Error("seeds 7 and 8 derived the same selective queries")
	}
}

// out_b_per_item is a count of bytes the program wrote: it repeats exactly
// for a seed and moves with the seed.
func TestOutputBytesRepeatForASeed(t *testing.T) {
	for _, w := range []string{"ingest_oneway", "query_selective"} {
		a := quickRun(t, w, 3, false).Metrics["out_b_per_item"]
		b := quickRun(t, w, 3, false).Metrics["out_b_per_item"]
		c := quickRun(t, w, 4, false).Metrics["out_b_per_item"]
		if a != b {
			t.Errorf("%s: out_b_per_item %v then %v on one seed", w, a, b)
		}
		if a == c {
			t.Errorf("%s: out_b_per_item %v on seeds 3 and 4 alike", w, a)
		}
	}
}

// A slice whose pipeline loses one campaign must fail its output check.
func TestIngestCheckCatchesDroppedCampaign(t *testing.T) {
	for _, reactive := range []bool{false, true} {
		w := &ingestLoad{e: quickEnv(t, 5), reactive: reactive}
		defer w.close()
		if _, _, err := w.setup(); err != nil {
			t.Fatal(err)
		}
		if err := w.prepare(); err != nil {
			t.Fatal(err)
		}
		res, err := w.slice(nil)
		if err != nil || !res.ok {
			t.Fatalf("reactive=%v: untampered slice: ok=%v err=%v", reactive, res.ok, err)
		}
		// Same pipeline, but the detector's callback swallows the third campaign.
		p, n := w.pipe, 0
		p.det = core.NewDetector(core.ScaledConfig(p.tel.Size()), func(sc *core.Scan) {
			if n++; n != 3 {
				p.emit(sc)
			}
		})
		res, err = w.slice(nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.ok {
			t.Errorf("reactive=%v: a slice that dropped a campaign passed its check", reactive)
		}
	}
}

// A store that disagrees with the reference in one record must fail the
// query that reads that record's field.
func TestQueryCheckCatchesWrongResult(t *testing.T) {
	w, err := newQueryLoad(quickEnv(t, 5), false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if _, _, err := w.setup(); err != nil {
		t.Fatal(err)
	}
	w.camp.scans[len(w.camp.scans)/2].Packets += 1000 // the reference now sums a different decade
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	res, err := w.slice(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ok {
		t.Error("a slice whose sum differs from the reference passed its check")
	}

	clean, err := newQueryLoad(quickEnv(t, 5), false)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.close()
	if _, _, err := clean.setup(); err != nil {
		t.Fatal(err)
	}
	if err := clean.prepare(); err != nil {
		t.Fatal(err)
	}
	if res, err := clean.slice(nil); err != nil || !res.ok {
		t.Errorf("untampered slice: ok=%v err=%v", res.ok, err)
	}
}

// The quick mode runs every workload and both passes in a few seconds, and
// between them the passes produce every metric BENCHMARK.json declares.
func TestQuickProducesEveryDeclaredMetric(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != 4 || len(sp.EndToEnd) != 5 {
		t.Fatalf("declaration has %d workloads and %d end-to-end metrics, want 4 and 5", len(sp.Workloads), len(sp.EndToEnd))
	}
	start := time.Now()
	layered := map[string]bool{}
	for _, wl := range sp.Workloads {
		rr := quickRun(t, wl.Name, 1, false)
		if !rr.Correct || rr.Failed != 0 {
			t.Errorf("%s: %d of %d slices failed", wl.Name, rr.Failed, rr.Attempted)
		}
		e2e, err := sp.render(false, rr.Metrics)
		if err != nil {
			t.Errorf("%s: %v", wl.Name, err)
		}
		for name, v := range e2e {
			if !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v, want a positive number", wl.Name, name, v.Value)
			}
		}

		tr := quickRun(t, wl.Name, 1, true)
		if !tr.Correct {
			t.Errorf("%s: traced pass not correct (coverage %v)", wl.Name, tr.Metrics["ledger.coverage"])
		}
		if _, err := sp.render(true, tr.Metrics); err != nil {
			t.Errorf("%s: %v", wl.Name, err)
		}
		for name := range tr.Metrics {
			layered[name] = true
		}
		if st, err := os.Stat(tr.Diagnostics.TraceFile); err != nil || st.Size() == 0 {
			t.Errorf("%s: trace file %q missing or empty (%v)", wl.Name, tr.Diagnostics.TraceFile, err)
		}
	}
	for _, m := range sp.PerLayer {
		if !layered[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload produces it", m.Name)
		}
	}
	// A few seconds when built normally; the race detector multiplies it.
	t.Logf("quick mode took %v over all workloads and passes", time.Since(start))
}

// The runner refuses names that BENCHMARK.json does not declare.
func TestUndeclaredNamesAreRefused(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]float64{"made.up_metric": 1}
	for _, d := range sp.EndToEnd {
		m[d.Name] = 1
	}
	if _, err := sp.render(false, m); err == nil || !strings.Contains(err.Error(), "made.up_metric") {
		t.Errorf("undeclared metric accepted: %v", err)
	}
	delete(m, "made.up_metric")
	delete(m, "setup_s")
	if _, err := sp.render(false, m); err == nil {
		t.Error("a run that did not measure setup_s was accepted")
	}
	o := &options{workload: "query_everything", specPath: specPath, seconds: 1, quick: true, workdir: t.TempDir()}
	if err := single(o, sp); err == nil {
		t.Error("undeclared workload accepted")
	}
}

// Coverage comes from the spans: self time is a span's duration less its
// children's, and time no span covers lowers the coverage.
func TestLedgerCoverageFromSpans(t *testing.T) {
	tr := newTracer()
	add := func(name string, parent int, start, end int64) int {
		id := tr.start(name, parent)
		tr.spans[id].Start, tr.spans[id].End = start, end
		return id
	}
	a := add("core.ingest", -1, 0, 600)
	add("enrich.origin", a, 100, 150)
	add("archive.add", a, 150, 350)
	add("archive.seal", -1, 600, 1000)
	l := tr.finishSlice(1000)
	if l.self["core.ingest"] != 350 || l.self["enrich.origin"] != 50 || l.self["archive.add"] != 200 || l.self["archive.seal"] != 400 {
		t.Errorf("self times %v", l.self)
	}
	if l.coverage != 1 {
		t.Errorf("coverage %v, want 1", l.coverage)
	}

	add("packet.decode", -1, 0, 400)
	if l := tr.finishSlice(1000); l.coverage != 0.4 {
		t.Errorf("coverage %v of a slice 40%% covered", l.coverage)
	}
	for c, want := range map[float64]bool{0.89: false, 0.9: true, 1: true, 1.1: true, 1.11: false} {
		if coverageOK(c) != want {
			t.Errorf("coverageOK(%v) = %v", c, !want)
		}
	}
}

// leakyLoad is a workload whose slices spend half their time where no span
// looks: the traced pass must not call that a readable ledger.
type leakyLoad struct{ covered bool }

func (l *leakyLoad) setup() (float64, map[string]float64, error) { return 1, nil, nil }
func (l *leakyLoad) prepare() error                              { return nil }
func (l *leakyLoad) items() int                                  { return 1 }
func (l *leakyLoad) inputs() map[string]float64                  { return nil }
func (l *leakyLoad) close()                                      {}
func (l *leakyLoad) shadow(*tracer) (map[string]float64, error) {
	return nil, nil
}
func (l *leakyLoad) layers(ledger, sliceResult, map[string]float64) map[string]float64 {
	return map[string]float64{}
}
func (l *leakyLoad) slice(tr *tracer) (sliceResult, error) {
	res := sliceResult{ok: true}
	clock := startClock()
	id := tr.start("packet.decode", -1)
	time.Sleep(2 * time.Millisecond)
	if l.covered {
		time.Sleep(2 * time.Millisecond)
	}
	tr.end(id)
	if !l.covered {
		time.Sleep(2 * time.Millisecond)
	}
	clock.stop(&res)
	return res, nil
}

func TestTracedPassFailsWithoutCoverage(t *testing.T) {
	for _, covered := range []bool{true, false} {
		dir := t.TempDir()
		cfg := runConfig{workload: "leaky", seconds: 0.05, trace: true, quick: true, workdir: dir, traceDir: dir}
		rr, err := measure(cfg, &leakyLoad{covered: covered}, quickSizes)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Correct != covered {
			t.Errorf("covered=%v: correct=%v with ledger.coverage %v", covered, rr.Correct, rr.Metrics["ledger.coverage"])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	tight := func(c float64) sample { return newSample([]float64{c * 0.99, c, c * 1.01, c * 1.005, c * 0.995}) }
	wide := func(c float64) sample { return newSample([]float64{c * 0.8, c, c * 1.2, c * 0.9, c * 1.1}) }
	cases := []struct {
		m    metricSpec
		a, b sample
		want string
	}{
		{lower, tight(100), tight(101), "within-bound"},
		{lower, tight(100), tight(115), "worse"},
		{lower, tight(100), tight(90), "better"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(120), "better"},
		{lower, wide(100), wide(105), "unresolved"},
		{lower, wide(100), wide(40), "better"}, // noisy, but no run of B is as slow as any run of A
	}
	for _, c := range cases {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

// --compare reads two records, prints every pair and counts the worse ones.
func TestCompareFiles(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(scale float64) *record {
		rec := &record{Header: newHeader(false)}
		for i := 0; i < 5; i++ {
			jitter := 1 + 0.002*float64(i)
			rec.Runs = append(rec.Runs, runRecord{Workload: "ingest_oneway", Metrics: map[string]float64{
				"setup_s": 1 * jitter * scale, "throughput_per_s": 1e6 * jitter,
				"peak_mem_mb": 100 * jitter, "alloc_b_per_item": 30, "out_b_per_item": 0.5,
			}})
		}
		return rec
	}
	dir := t.TempDir()
	a, same, slow := filepath.Join(dir, "a.json"), filepath.Join(dir, "same.json"), filepath.Join(dir, "slow.json")
	for path, rec := range map[string]*record{a: mk(1), same: mk(1), slow: mk(1.3)} {
		if err := writeRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if worse, err := compareFiles(&out, sp, a, same); err != nil || worse != 0 {
		t.Errorf("identical records: %d worse, err %v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err := compareFiles(&out, sp, a, slow)
	if err != nil || worse != 1 {
		t.Errorf("30%% slower set-up: %d worse, err %v\n%s", worse, err, out.String())
	}
	for _, want := range []string{"setup_s", "worse", "n=5", "of 1.004"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
