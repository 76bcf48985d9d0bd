package analysis_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/synscan/synscan/internal/analysis"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/report"
)

// The configuration the reproducibility checks run at: `syneval -seed 1
// -scale 0.0003 -telescope 2048` (CI compares two runs of it byte for byte).
const (
	goldenSeed  = 1
	goldenScale = 0.0003
	goldenTel   = 2048
)

// goldenReportHash pins the text report of the full evaluation — every
// experiment's numbers as report.Text formats them — the way goldenDecadeHash
// (golden_test.go) pins the detector's output. It is the SHA-256 of
// `syneval -seed 1 -scale 0.0003 -telescope 2048` on stdout. If a change is
// intended to move a reported number, rerun with -run TestGoldenReportText -v
// and copy the printed hash here.
const goldenReportHash = "90cb8881e1d4eadcfa1504b16af4ea9bb704de1fd7244dea581774b1cd5878cb"

// golden is the sequential decade at that configuration and its full
// evaluation, computed once for the tests below.
var golden struct {
	once sync.Once
	in   analysis.Input
	full *analysis.Evaluation
	err  error
}

func goldenEvaluation(t *testing.T) (analysis.Input, *analysis.Evaluation) {
	t.Helper()
	golden.once.Do(func() {
		golden.in = analysis.Input{Seed: goldenSeed, Scale: goldenScale, TelescopeSize: goldenTel}
		golden.in.Years, golden.err = analysis.Decade(goldenSeed, goldenScale, goldenTel, analysis.CollectConfig{})
		if golden.err == nil {
			golden.full, golden.err = analysis.Evaluate(golden.in, nil)
		}
	})
	if golden.err != nil {
		t.Fatal(golden.err)
	}
	return golden.in, golden.full
}

func TestGoldenReportText(t *testing.T) {
	t.Parallel()
	_, ev := goldenEvaluation(t)
	var b bytes.Buffer
	report.Text(&b, ev)
	got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
	t.Logf("report text hash: %s", got)
	if got != goldenReportHash {
		t.Errorf("report text hash %s != golden %s\nif this change is intended, update goldenReportHash",
			got, goldenReportHash)
	}
}

// TestMarkdownMatchesText: the Markdown report is the text report's sections
// in Markdown syntax — one "## " heading per section title the text prints
// (Figure 4 once per pinned year), a section for every experiment key, and
// every aligned table's header again as a pipe row.
func TestMarkdownMatchesText(t *testing.T) {
	t.Parallel()
	_, ev := goldenEvaluation(t)
	var text, md strings.Builder
	report.Text(&text, ev)
	report.Markdown(&md, ev)
	lines := strings.Split(text.String(), "\n")
	headings := strings.Count(md.String(), "\n## ")

	var titles []string
	for i := 1; i < len(lines); i++ {
		prev, line := lines[i-1], lines[i]
		switch {
		case line != "" && strings.Trim(line, "=") == "" && len(line) == len(prev):
			titles = append(titles, prev)
			if strings.Count(md.String(), "\n## "+prev+"\n") != 1 {
				t.Errorf("section %q: want one Markdown heading", prev)
			}
		case line != "" && strings.Trim(line, "- ") == "":
			// An aligned table's rule: its dash runs mark the header's columns.
			var cells []string
			for start := 0; start < len(line); {
				end := start + strings.Index(line[start:]+" ", " ")
				cells = append(cells, strings.TrimSpace(prev[start:min(end, len(prev))]))
				start = end + 2
			}
			if row := "\n| " + strings.Join(cells, " | ") + " |\n"; !strings.Contains(md.String(), row) {
				t.Errorf("table header %q: no pipe row %q in the Markdown", prev, row)
			}
		}
	}
	if headings != len(titles) {
		t.Errorf("Markdown has %d headings, the text %d section titles", headings, len(titles))
	}
	for _, e := range analysis.Experiments {
		title, _, _ := strings.Cut(e.Title, "%d")
		if !strings.Contains(md.String(), "\n## "+title) {
			t.Errorf("%s: no Markdown section", e.Key)
		}
	}
}

// TestExperimentTable: selecting one key computes exactly that row — the
// fields it declares, equal to the full evaluation's, and nothing else — the
// table's rows between them fill every field of Evaluation, and each row has a
// text section. The subtest keeps the name it had beside a sharded sibling:
// collection is sequential now, which is what workers=0 always meant.
func TestExperimentTable(t *testing.T) {
	t.Run("workers=0", func(t *testing.T) {
		t.Parallel()
		testExperimentTable(t)
	})
}

func testExperimentTable(t *testing.T) {
	header := []string{"Seed", "Scale", "TelescopeSize", "Skipped"}
	in, full := goldenEvaluation(t)
	if len(full.Skipped) > 0 {
		t.Fatalf("a full decade skipped experiments: %v", full.Skipped)
	}
	fullFields := reflect.ValueOf(full).Elem()
	filledBy := map[string]string{}
	for _, e := range analysis.Experiments {
		part, err := analysis.Evaluate(in, []string{e.Key})
		if err != nil {
			t.Fatalf("%s: %v", e.Key, err)
		}
		if !e.Evaluated(part) || !e.Evaluated(full) {
			t.Errorf("%s: result absent (alone %v, in the full evaluation %v)",
				e.Key, e.Evaluated(part), e.Evaluated(full))
		}
		fields := reflect.ValueOf(part).Elem()
		for i := 0; i < fields.NumField(); i++ {
			name := fields.Type().Field(i).Name
			switch {
			case slices.Contains(e.Fields, name):
				if prev, dup := filledBy[name]; dup {
					t.Errorf("field %s is filled by both %s and %s", name, prev, e.Key)
				}
				filledBy[name] = e.Key
				if !reflect.DeepEqual(fields.Field(i).Interface(), fullFields.Field(i).Interface()) {
					t.Errorf("%s: %s differs from the full evaluation's", e.Key, name)
				}
			case !slices.Contains(header, name) && !fields.Field(i).IsZero():
				t.Errorf("%s: also set %s, which the row does not declare", e.Key, name)
			}
		}

		var b strings.Builder
		report.Text(&b, part)
		title, _, _ := strings.Cut(e.Title, "%d") // Figure 4's takes a year
		if body, ok := strings.CutPrefix(b.String(), "\n"+title); !ok || strings.Count(body, "\n") < 3 {
			t.Errorf("%s: text section missing or empty:\n%s", e.Key, b.String())
		}
	}
	for i := 0; i < fullFields.NumField(); i++ {
		name := fullFields.Type().Field(i).Name
		if _, ok := filledBy[name]; !ok && !slices.Contains(header, name) {
			t.Errorf("no experiment fills Evaluation.%s", name)
		}
	}
}

// TestEvaluateSelection: keys are checked against the table, and the decade
// is simulated at most once and only for a row that reads it.
func TestEvaluateSelection(t *testing.T) {
	t.Parallel()
	decades := func(keys ...string) (*analysis.Evaluation, uint64) {
		t.Helper()
		reg := obs.NewRegistry()
		ev, err := analysis.Evaluate(analysis.Input{Seed: goldenSeed, Scale: goldenScale,
			TelescopeSize: goldenTel, Collect: analysis.CollectConfig{Metrics: reg}}, keys)
		if err != nil {
			t.Fatal(err)
		}
		return ev, reg.Snapshot().Histograms["collect.run_ns"].Count
	}
	if ev, years := decades("fig10"); years != 0 || ev.Fig910 == nil || ev.Table1 != nil {
		t.Errorf("fig10 (alias of fig9, scenario-only): %d years collected, Fig910 set %v, Table1 set %v",
			years, ev.Fig910 != nil, ev.Table1 != nil)
	}
	if ev, years := decades("table1", "fig5", "sec42"); years != 10 || ev.Table1 == nil || ev.Figure5 == nil || ev.Sec42 == nil {
		t.Errorf("three decade-level rows collected %d years, want 10 (one decade)", years)
	}

	_, err := analysis.Evaluate(analysis.Input{Seed: goldenSeed, Scale: goldenScale, TelescopeSize: goldenTel},
		[]string{"fig8", "bogus"})
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("unknown key: err = %v, want one naming the key", err)
	}
}

// TestEvaluateArchivedCampaigns: campaigns alone serve the campaign-level rows
// whose years they hold; a pinned year they lack skips a default-set row and
// fails one asked for by name.
func TestEvaluateArchivedCampaigns(t *testing.T) {
	t.Parallel()
	simulated, _ := goldenEvaluation(t)
	years := simulated.Years
	camps := analysis.CampaignsOf(years)
	in := analysis.Input{TelescopeSize: goldenTel, Campaigns: camps[4:5]} // 2019 only
	ev, err := analysis.Evaluate(in, nil)
	if err != nil {
		t.Fatalf("default set on a single-year input: %v", err)
	}
	if len(ev.Sec52) != 1 || len(ev.Sec63) != 1 || len(ev.Collab) != 1 || ev.Collab[0].Year != 2019 {
		t.Errorf("year-agnostic campaign rows not evaluated: sec52 %d, sec63 %d, collab %+v",
			len(ev.Sec52), len(ev.Sec63), ev.Collab)
	}
	if ev.Figure5 != nil || ev.Sec64 != nil || ev.ZMapDaily != nil || ev.Table1 != nil {
		t.Error("rows pinned to absent years, or needing probes, were evaluated")
	}
	for _, key := range []string{"zmapdaily", "fig5", "fig6", "fig7", "sec64"} {
		if !slices.ContainsFunc(ev.Skipped, func(s string) bool { return strings.Contains(s, `"`+key+`"`) }) {
			t.Errorf("skip of %s not reported: %v", key, ev.Skipped)
		}
	}
	if len(ev.Skipped) != 5 {
		t.Errorf("Skipped = %v, want the five pinned rows", ev.Skipped)
	}
	if _, err := analysis.Evaluate(in, []string{"fig5"}); err == nil || !strings.Contains(err.Error(), "2022") {
		t.Errorf("explicit fig5 without 2022: err = %v", err)
	}
	if _, err := analysis.Evaluate(in, []string{"table1"}); err == nil || !strings.Contains(err.Error(), "probe") {
		t.Errorf("explicit table1 on campaigns alone: err = %v", err)
	}

	// The whole decade's campaigns serve every campaign-level row, equal to
	// the simulated decade's.
	in.Campaigns = camps
	got, err := analysis.Evaluate(in, nil)
	if err != nil || len(got.Skipped) > 0 {
		t.Fatalf("decade of campaigns: err %v, skipped %v", err, got.Skipped)
	}
	want, err := analysis.Evaluate(analysis.Input{TelescopeSize: goldenTel, Years: years}, analysis.Keys(true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("campaign-level rows differ between campaigns alone and the simulated decade")
	}
}
