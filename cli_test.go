package synscan

// cli_test builds the command binaries and drives them end to end:
// syntelescope produces a capture in each format, synalyze analyzes it,
// syningest stores it, syneval regenerates a selected experiment. Run with
// -short to skip (it shells out to the Go toolchain).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	dir := t.TempDir()
	syntelescope := buildTool(t, dir, "syntelescope")
	synalyze := buildTool(t, dir, "synalyze")
	syneval := buildTool(t, dir, "syneval")

	pcapPath := filepath.Join(dir, "capture.pcap")
	out, err := exec.Command(syntelescope,
		"-year", "2019", "-seed", "4", "-scale", "0.0003",
		"-telescope", "2048", "-out", pcapPath).CombinedOutput()
	if err != nil {
		t.Fatalf("syntelescope: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "accepted") {
		t.Fatalf("syntelescope output:\n%s", out)
	}
	if fi, err := os.Stat(pcapPath); err != nil || fi.Size() < 1000 {
		t.Fatalf("pcap not written: %v", err)
	}

	out, err = exec.Command(synalyze, "-telescope", "2048", pcapPath).CombinedOutput()
	if err != nil {
		t.Fatalf("synalyze: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"qualified campaigns", "campaigns by tool", "top ports by packets"} {
		if !strings.Contains(s, want) {
			t.Fatalf("synalyze output missing %q:\n%s", want, s)
		}
	}
	// The capture must contain detectable campaigns.
	if strings.Contains(s, "qualified campaigns 0\n") {
		t.Fatalf("no campaigns detected from pcap:\n%s", s)
	}

	// Spool format round trip: write a flowlog spool and analyze it with
	// the telescope size auto-read from the header.
	spoolPath := filepath.Join(dir, "capture.spool")
	out, err = exec.Command(syntelescope,
		"-year", "2019", "-seed", "4", "-scale", "0.0003",
		"-telescope", "2048", "-format", "spool", "-out", spoolPath).CombinedOutput()
	if err != nil {
		t.Fatalf("syntelescope spool: %v\n%s", err, out)
	}
	pcapInfo, _ := os.Stat(pcapPath)
	spoolInfo, err := os.Stat(spoolPath)
	if err != nil {
		t.Fatalf("spool not written: %v", err)
	}
	if spoolInfo.Size() >= pcapInfo.Size() {
		t.Fatalf("spool (%d B) not denser than pcap (%d B)", spoolInfo.Size(), pcapInfo.Size())
	}
	outSpool, err := exec.Command(synalyze, spoolPath).CombinedOutput()
	if err != nil {
		t.Fatalf("synalyze spool: %v\n%s", err, outSpool)
	}
	// -telescope overrides the spool header exactly when it is given,
	// whatever its value — the flag's own default, 4096, included.
	outSame, err := exec.Command(synalyze, "-telescope", "2048", spoolPath).CombinedOutput()
	if err != nil {
		t.Fatalf("synalyze -telescope 2048 spool: %v\n%s", err, outSame)
	}
	if string(outSame) != string(outSpool) {
		t.Fatalf("-telescope 2048 on a 2048 spool changed the report:\n%s\nvs\n%s", outSame, outSpool)
	}
	outOver, err := exec.Command(synalyze, "-telescope", "4096", spoolPath).CombinedOutput()
	if err != nil {
		t.Fatalf("synalyze -telescope 4096 spool: %v\n%s", err, outOver)
	}
	if string(outOver) == string(outSpool) {
		t.Fatal("explicit -telescope 4096 was overridden by the spool header's 2048")
	}
	// Same capture, same analysis: the qualified-campaign line must match
	// the pcap run's.
	lineOf := func(s, prefix string) string {
		for _, l := range strings.Split(s, "\n") {
			if strings.Contains(l, prefix) {
				return l
			}
		}
		return ""
	}
	if a, b := lineOf(s, "qualified campaigns"), lineOf(string(outSpool), "qualified campaigns"); a != b || a == "" {
		t.Fatalf("pcap and spool analyses disagree:\n pcap:  %q\n spool: %q", a, b)
	}

	out, err = exec.Command(syneval,
		"-seed", "4", "-scale", "0.0002", "-telescope", "2048",
		"-only", "fig8").CombinedOutput()
	if err != nil {
		t.Fatalf("syneval: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Censys") {
		t.Fatalf("syneval fig8 output missing orgs:\n%s", out)
	}
	// A key that is not in the experiment table is a usage error that lists
	// the valid ones.
	out, err = exec.Command(syneval, "-only", "fig8,bogus").CombinedOutput()
	if err == nil || !strings.Contains(string(out), `"bogus"`) || !strings.Contains(string(out), "zmapdaily") {
		t.Fatalf("syneval -only bogus: err %v, output:\n%s", err, out)
	}

	// syningest → syneval -archive on this single-year capture: the
	// experiments that read any year's campaigns run, the ones pinned to other
	// years are skipped with a line on stderr, and one of those asked for by
	// name is an error.
	syningest := buildTool(t, dir, "syningest")
	arcDir := filepath.Join(dir, "capture-store")
	if out, err := exec.Command(syningest, "-dir", arcDir, "-telescope", "2048", "-seal-every", "0", pcapPath).CombinedOutput(); err != nil {
		t.Fatalf("syningest: %v\n%s", err, out)
	}
	// A second run into the same store would count every campaign twice, so
	// it is refused, in batch and -follow alike.
	for _, mode := range [][]string{nil, {"-follow"}} {
		args := append(append([]string{"-dir", arcDir, "-telescope", "2048"}, mode...), pcapPath)
		if out, err := exec.Command(syningest, args...).CombinedOutput(); err == nil || !strings.Contains(string(out), arcDir) {
			t.Fatalf("syningest %v into a non-empty store: err %v, output:\n%s", mode, err, out)
		}
	}
	// -archive reads a store directory: a file (a segment, or a .syna from
	// an older run), a missing path and a store without calibrated years
	// are errors that name the argument.
	segs, _ := filepath.Glob(filepath.Join(arcDir, "*.syna"))
	if len(segs) == 0 {
		t.Fatal("syningest sealed no segment")
	}
	for _, bad := range append(segs, filepath.Join(dir, "no-such-store"), t.TempDir()) {
		if out, err := exec.Command(syneval, "-archive", bad).CombinedOutput(); err == nil || !strings.Contains(string(out), bad) {
			t.Fatalf("syneval -archive %s: err %v, output:\n%s", bad, err, out)
		}
	}
	cmd := exec.Command(syneval, "-archive", arcDir)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	report, err := cmd.Output()
	if err != nil {
		t.Fatalf("syneval -archive on a single-year archive: %v\n%s", err, stderr.String())
	}
	for _, want := range []string{"§5.2", "§6.3", "collaborative scan reconstruction", "\n2019 "} {
		if !strings.Contains(string(report), want) {
			t.Fatalf("single-year archive report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(string(report), "Figure 5") || !strings.Contains(stderr.String(), `skipped: experiment "fig5" needs year 2022`) {
		t.Fatalf("fig5 (pinned to 2022) not skipped:\nstdout:\n%s\nstderr:\n%s", report, stderr.String())
	}
	if out, err := exec.Command(syneval, "-archive", arcDir, "-only", "fig5").CombinedOutput(); err == nil {
		t.Fatalf("syneval -archive -only fig5 without 2022 succeeded:\n%s", out)
	}
	// A store whose segment is truncated is refused, naming the segment: the
	// experiments' counts would otherwise silently miss its campaigns.
	damaged := t.TempDir()
	files, _ := filepath.Glob(filepath.Join(arcDir, "*"))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(f, ".syna") {
			data = data[:len(data)/2]
		}
		if err := os.WriteFile(filepath.Join(damaged, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if out, err := exec.Command(syneval, "-archive", damaged).CombinedOutput(); err == nil || !strings.Contains(string(out), filepath.Base(segs[0])) {
		t.Fatalf("syneval -archive over a truncated segment: err %v, output:\n%s", err, out)
	}
	// -only and -archive hold for every output format.
	archJSON := filepath.Join(dir, "archive.json")
	if out, err := exec.Command(syneval, "-archive", arcDir, "-only", "sec52", "-json", archJSON).CombinedOutput(); err != nil {
		t.Fatalf("syneval -archive -only sec52 -json: %v\n%s", err, out)
	}
	var archEval map[string]json.RawMessage
	if raw, err := os.ReadFile(archJSON); err != nil || json.Unmarshal(raw, &archEval) != nil {
		t.Fatalf("archive json export unreadable: %v", err)
	}
	if string(archEval["sec52"]) == "null" || string(archEval["sec63"]) != "null" {
		t.Fatalf("-only sec52 -json: sec52 = %.40s, sec63 = %.40s", archEval["sec52"], archEval["sec63"])
	}

	// syningest reads what synalyze reads: the pcap and the spool of this one
	// capture build stores that serve the same scans. (-telescope is given to
	// both; only the spool could have done without.)
	synserve := buildTool(t, dir, "synserve")
	var bodies [][]byte
	for _, capture := range []string{pcapPath, spoolPath} {
		store := capture + ".store"
		if out, err := exec.Command(syningest, "-dir", store, "-telescope", "2048",
			"-seal-every", "0", capture).CombinedOutput(); err != nil {
			t.Fatalf("syningest %s: %v\n%s", capture, err, out)
		}
		bodies = append(bodies, postBody(t, startServe(t, synserve, store), allScans))
	}
	if !bytes.Equal(bodies[0], bodies[1]) || !bytes.Contains(bodies[0], []byte(`"src"`)) {
		t.Fatalf("stores ingested from pcap and spool disagree:\n pcap:  %.300s\n spool: %.300s", bodies[0], bodies[1])
	}

	// pcapng round trip: write a pcapng capture and analyze it.
	ngPath := filepath.Join(dir, "capture.pcapng")
	out, err = exec.Command(syntelescope,
		"-year", "2019", "-seed", "4", "-scale", "0.0003",
		"-telescope", "2048", "-format", "pcapng", "-out", ngPath).CombinedOutput()
	if err != nil {
		t.Fatalf("syntelescope pcapng: %v\n%s", err, out)
	}
	outNG, err := exec.Command(synalyze, "-telescope", "2048", ngPath).CombinedOutput()
	if err != nil {
		t.Fatalf("synalyze pcapng: %v\n%s", err, outNG)
	}

	// Structured exports: JSON + CSV + Markdown in one invocation.
	jsonPath := filepath.Join(dir, "eval.json")
	csvDir := filepath.Join(dir, "csv")
	mdPath := filepath.Join(dir, "eval.md")
	out, err = exec.Command(syneval,
		"-seed", "4", "-scale", "0.0001", "-telescope", "2048",
		"-json", jsonPath, "-csv", csvDir, "-markdown", mdPath).CombinedOutput()
	if err != nil {
		t.Fatalf("syneval exports: %v\n%s", err, out)
	}
	j, err := os.ReadFile(jsonPath)
	if err != nil || !strings.Contains(string(j), "\"table1\"") {
		t.Fatalf("json export: %v", err)
	}
	if _, err := os.Stat(filepath.Join(csvDir, "table1.csv")); err != nil {
		t.Fatalf("csv export: %v", err)
	}
	md, err := os.ReadFile(mdPath)
	if err != nil || !strings.Contains(string(md), "# synscan evaluation") {
		t.Fatalf("markdown export: %v", err)
	}

	// The same selection in every format: -only is honoured under -json,
	// -csv and -markdown, and sec42 and vantage are selectable there too.
	partJSON := filepath.Join(dir, "part.json")
	partCSV := filepath.Join(dir, "partcsv")
	partMD := filepath.Join(dir, "part.md")
	out, err = exec.Command(syneval,
		"-seed", "4", "-scale", "0.0001", "-telescope", "2048", "-only", "fig8,sec42,vantage",
		"-json", partJSON, "-csv", partCSV, "-markdown", partMD).CombinedOutput()
	if err != nil {
		t.Fatalf("syneval -only with exports: %v\n%s", err, out)
	}
	var part map[string]json.RawMessage
	if raw, err := os.ReadFile(partJSON); err != nil || json.Unmarshal(raw, &part) != nil {
		t.Fatalf("partial json export unreadable: %v", err)
	}
	for _, key := range []string{"figure8_2024", "sec42_normalized_2024", "vantage_2022"} {
		if v := string(part[key]); v == "" || v == "null" {
			t.Fatalf("-only fig8,sec42,vantage -json: %s missing", key)
		}
	}
	if string(part["table1"]) != "null" || string(part["figure1"]) != "null" {
		t.Fatal("-only ignored under -json: unselected experiments were evaluated")
	}
	if files, _ := os.ReadDir(partCSV); len(files) != 1 || files[0].Name() != "figure8.csv" {
		t.Fatalf("-only fig8,... -csv wrote %v, want figure8.csv alone", files)
	}
	if md, _ := os.ReadFile(partMD); !strings.Contains(string(md), "Figure 8") || strings.Contains(string(md), "Table 1") ||
		!strings.Contains(string(md), "\n## §4.2 — origins normalized") || !strings.Contains(string(md), "\n## §7 — vantage-point comparison") {
		t.Fatalf("-only fig8,... -markdown:\n%s", md)
	}
	if !strings.Contains(string(out), "wrote "+filepath.Join(partCSV, "figure8.csv")) ||
		!strings.Contains(string(out), "no CSV series for sec42,vantage") {
		t.Fatalf("-only fig8,... -csv: the log does not name what was written:\n%s", out)
	}
	out, err = exec.Command(syneval,
		"-seed", "4", "-scale", "0.0001", "-telescope", "2048", "-only", "sec42,vantage").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "§4.2") || !strings.Contains(string(out), "vantage-point comparison") {
		t.Fatalf("syneval -only sec42,vantage (text): %v\n%s", err, out)
	}
}

// TestCLIWorkers pins what -workers promises on the two commands that offer
// it: replaying one capture at 1, 2 and 4 detector shards prints
// byte-identical synalyze reports and builds syningest stores of the same
// campaigns (a store's order is close order at one shard and (End, Start,
// Src) above, so the scans are compared sorted, and the segments written at
// 2 and 4 shards byte for byte).
func TestCLIWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	dir := t.TempDir()
	syntelescope := buildTool(t, dir, "syntelescope")
	synalyze := buildTool(t, dir, "synalyze")
	syningest := buildTool(t, dir, "syningest")

	pcapPath := filepath.Join(dir, "capture.pcap")
	if out, err := exec.Command(syntelescope,
		"-year", "2019", "-seed", "4", "-scale", "0.0003",
		"-telescope", "2048", "-out", pcapPath).CombinedOutput(); err != nil {
		t.Fatalf("syntelescope: %v\n%s", err, out)
	}
	var reports, segments [][]byte
	var scans [][]string
	for _, w := range []string{"1", "2", "4"} {
		cmd := exec.Command(synalyze, "-telescope", "2048", "-workers", w, pcapPath)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		report, err := cmd.Output()
		if err != nil {
			t.Fatalf("synalyze -workers %s: %v\n%s", w, err, stderr.String())
		}
		store := filepath.Join(dir, "workers"+w)
		if out, err := exec.Command(syningest, "-dir", store, "-telescope", "2048",
			"-workers", w, "-seal-every", "0", pcapPath).CombinedOutput(); err != nil {
			t.Fatalf("syningest -workers %s: %v\n%s", w, err, out)
		}
		cat, err := OpenCatalog(store, CatalogConfig{})
		if err != nil {
			t.Fatal(err)
		}
		v := cat.View()
		var keys []string
		err = v.Query(context.Background(), AllScans, func(sc *Scan, _ *Origin) {
			keys = append(keys, fmt.Sprintf("%+v", *sc))
		})
		v.Release()
		cat.Close()
		if err != nil {
			t.Fatalf("-workers %s store: %v", w, err)
		}
		slices.Sort(keys)
		reports, scans = append(reports, report), append(scans, keys)
		var seg []byte
		names, _ := filepath.Glob(filepath.Join(store, "*.syna"))
		for _, name := range names {
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			seg = append(seg, b...)
		}
		segments = append(segments, seg)
	}
	if len(segments[1]) == 0 || !bytes.Equal(segments[1], segments[2]) {
		t.Errorf("-workers 2 and 4 wrote different segments (%d and %d bytes)", len(segments[1]), len(segments[2]))
	}
	if len(scans[0]) == 0 || !bytes.Contains(reports[0], []byte("qualified campaigns")) {
		t.Fatalf("-workers 1 stored %d scans; report:\n%s", len(scans[0]), reports[0])
	}
	for i, w := range []string{"2", "4"} {
		if !bytes.Equal(reports[i+1], reports[0]) {
			t.Errorf("-workers %s report differs from -workers 1:\n%s\nvs\n%s", w, reports[i+1], reports[0])
		}
		if !slices.Equal(scans[i+1], scans[0]) {
			t.Errorf("-workers %s stored %d scans, -workers 1 %d, or their values differ",
				w, len(scans[i+1]), len(scans[0]))
		}
	}
}

// TestCLIMetricsJSON: the -metrics sink must emit the stable JSON snapshot
// schema ({counters, gauges, histograms}) covering the telescope-style
// ingress counters, the detector lifecycle, and — with -workers — the shard
// queues, with values consistent with each other.
func TestCLIMetricsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	dir := t.TempDir()
	syntelescope := buildTool(t, dir, "syntelescope")
	synalyze := buildTool(t, dir, "synalyze")

	pcapPath := filepath.Join(dir, "capture.pcap")
	telMetrics := filepath.Join(dir, "tel-metrics.json")
	out, err := exec.Command(syntelescope,
		"-year", "2019", "-seed", "4", "-scale", "0.0003",
		"-telescope", "2048", "-out", pcapPath, "-metrics", telMetrics).CombinedOutput()
	if err != nil {
		t.Fatalf("syntelescope: %v\n%s", err, out)
	}

	type snapshot struct {
		Counters   map[string]uint64          `json:"counters"`
		Gauges     map[string]int64           `json:"gauges"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	load := func(path string) snapshot {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var s snapshot
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatalf("metrics JSON unparseable: %v\n%s", err, raw)
		}
		return s
	}

	tel := load(telMetrics)
	if tel.Counters["telescope.packets.accepted"] == 0 {
		t.Fatalf("syntelescope metrics missing accepted packets: %+v", tel.Counters)
	}
	if len(tel.Histograms) == 0 {
		t.Fatal("syntelescope metrics missing stage histograms")
	}

	anaMetrics := filepath.Join(dir, "ana-metrics.json")
	out, err = exec.Command(synalyze,
		"-telescope", "2048", "-workers", "2",
		"-metrics", anaMetrics, pcapPath).CombinedOutput()
	if err != nil {
		t.Fatalf("synalyze: %v\n%s", err, out)
	}
	ana := load(anaMetrics)
	accepted := ana.Counters["telescope.packets.accepted"]
	if accepted == 0 {
		t.Fatalf("no accepted packets counted: %+v", ana.Counters)
	}
	if got := ana.Counters["detector.packets"]; got != accepted {
		t.Fatalf("detector.packets = %d, accepted = %d", got, accepted)
	}
	for _, name := range []string{"detector.flows.opened", "detector.flows.closed", "detector.shard.batches"} {
		if ana.Counters[name] == 0 {
			t.Fatalf("counter %s missing/zero: %+v", name, ana.Counters)
		}
	}
	if ana.Counters["detector.flows.opened"] != ana.Counters["detector.flows.closed"] {
		t.Fatalf("opened %d != closed %d after final flush",
			ana.Counters["detector.flows.opened"], ana.Counters["detector.flows.closed"])
	}
	if _, ok := ana.Gauges["detector.shard.queue_depth"]; !ok {
		t.Fatalf("shard queue-depth gauge missing: %+v", ana.Gauges)
	}
	for _, name := range []string{"detector.shard.batch_fill", "replay.read_ns"} {
		if _, ok := ana.Histograms[name]; !ok {
			t.Fatalf("histogram %s missing", name)
		}
	}

	// Conservation: every record is accepted or dropped under exactly one
	// name. A reactive capture replayed passively has something to drop.
	reactivePath := filepath.Join(dir, "reactive.pcap")
	out, err = exec.Command(syntelescope,
		"-year", "2021", "-seed", "4", "-scale", "0.0002", "-telescope", "2048",
		"-reactive", "-out", reactivePath).CombinedOutput()
	if err != nil {
		t.Fatalf("syntelescope -reactive: %v\n%s", err, out)
	}
	for _, flags := range [][]string{nil, {"-reactive"}} {
		cmd := exec.Command(synalyze, append(flags, "-telescope", "2048", "-metrics", anaMetrics, reactivePath)...)
		report, err := cmd.Output()
		if err != nil {
			t.Fatalf("synalyze %v: %v", flags, err)
		}
		var records uint64
		if _, err := fmt.Sscanf(string(report), "records %d,", &records); err != nil || records == 0 {
			t.Fatalf("synalyze %v: no record count in:\n%s", flags, report)
		}
		c := load(anaMetrics).Counters
		accepted, notSYN, unparsed := c["telescope.packets.accepted"], c["telescope.drop.not_syn"], c["telescope.drop.unparsed"]
		if accepted+notSYN+unparsed != records || (notSYN == 0) != (flags != nil) {
			t.Fatalf("synalyze %v: accepted %d + not-SYN %d + unparsed %d, records %d", flags, accepted, notSYN, unparsed, records)
		}
	}
}

func TestCLISynalyzeBadInput(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	dir := t.TempDir()
	synalyze := buildTool(t, dir, "synalyze")
	bad := filepath.Join(dir, "not.pcap")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(synalyze, bad).CombinedOutput(); err == nil {
		t.Fatalf("garbage input accepted:\n%s", out)
	}
}
