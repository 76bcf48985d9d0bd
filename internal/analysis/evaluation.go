package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"github.com/synscan/synscan/internal/collab"
	"github.com/synscan/synscan/internal/stats"
	"github.com/synscan/synscan/internal/workload"
)

// Evaluation is the result set of the paper's reproduction: every table,
// figure and section scalar, each field filled by the row of the experiment
// table that names it and left zero when that row was not evaluated. Every
// renderer (report.Text, report.Markdown, WriteCSVDir, WriteJSON) reads it.
type Evaluation struct {
	Seed          uint64  `json:"seed"`
	Scale         float64 `json:"scale"`
	TelescopeSize int     `json:"telescopeSize"`

	Table1 []Table1Row `json:"table1"`
	Table2 []Table2Row `json:"table2"`

	Figure1 *Figure1Result        `json:"figure1"`
	Figure2 *Figure2Result        `json:"figure2_2020"`
	Figure3 []*Figure3Result      `json:"figure3"`
	Figure4 map[int][]Figure4Port `json:"figure4"`
	Figure5 []Figure5Port         `json:"figure5_2022"`
	Figure6 *Figure6Result        `json:"figure6_2022"`
	Figure7 []Figure7Row          `json:"figure7_2022"`
	Figure8 []Figure8Row          `json:"figure8_2024"`
	Fig910  []Figure910Row        `json:"figure9_10"`

	Sec51          []*Sec51Result      `json:"sec51"`
	ThreePlusTrend stats.PearsonResult `json:"threePlusTrend"`
	Sec52          []*Sec52Result      `json:"sec52"`
	Sec54          []*Sec54Result      `json:"sec54"`
	Sec63          []*Sec63Result      `json:"sec63"`
	Top100Trend    stats.PearsonResult `json:"top100Trend"`
	Sec64          *Sec64Result        `json:"sec64_zmap_2024"`

	Bias      []*BiasResult      `json:"institutionalBias"`
	Blockable []*BlockableResult `json:"blockable"`
	Blocklist *BlocklistResult   `json:"blocklist_2022"`
	Collab    []collab.Stats     `json:"collab"`

	Sec42     []NormalizedOrigin `json:"sec42_normalized_2024"`
	ZMapDaily []*ZMapDailyResult `json:"zmapDaily"`

	Vantage *VantageResult `json:"vantage_2022"`
	// SpeedPorts is the §5.3 speed-vs-ports correlation, by year.
	SpeedPorts map[int]stats.PearsonResult `json:"speedPorts"`

	// Skipped names, one line each, the default-set experiments left out
	// because the input lacks a year they are pinned to.
	Skipped []string `json:"-"`
}

// Input is what an evaluation runs on: the simulation parameters and,
// optionally, data already in hand.
type Input struct {
	Seed          uint64
	Scale         float64
	TelescopeSize int
	// Collect is how the decade is collected when a selected experiment needs
	// one that is not given.
	Collect CollectConfig
	// Years is a decade already simulated from the parameters above.
	Years []*YearData
	// Campaigns, without Years, are an archive's: nothing is simulated and
	// only the campaign-level experiments (Keys(true)) can run.
	Campaigns []*Campaigns
}

// Evaluate runs the experiments named by keys — every one the input can serve
// when keys is empty — in table order, simulating the decade at most once and
// only if one of them needs it. A key that is unknown, or that the input
// cannot serve, is an error; a default-set experiment pinned to a year the
// input lacks is skipped and named in Evaluation.Skipped.
func Evaluate(in Input, keys []string) (*Evaluation, error) {
	archived := in.Years == nil && in.Campaigns != nil
	servable := func(e *Experiment) bool { return !archived || e.Needs == NeedCampaigns }
	selected := map[*Experiment]bool{}
	for _, k := range keys {
		switch e := Lookup(k); {
		case e == nil:
			return nil, fmt.Errorf("unknown experiment %q", k)
		case !servable(e):
			return nil, fmt.Errorf("experiment %q needs the raw probe stream, which an archive does not hold", k)
		default:
			selected[e] = true
		}
	}

	r := &evalRun{in: in, years: in.Years, camps: in.Campaigns, cover: map[int][]Figure8Row{}}
	ev := &Evaluation{Seed: in.Seed, Scale: in.Scale, TelescopeSize: in.TelescopeSize}
	for _, e := range Experiments {
		if !selected[e] && (len(keys) > 0 || !servable(e)) {
			continue
		}
		if e.Needs != NeedScenario {
			if !archived && r.years == nil {
				if r.years, r.err = Decade(in.Seed, in.Scale, in.TelescopeSize, in.Collect); r.err != nil {
					return nil, r.err
				}
			}
			if r.years != nil && r.camps == nil {
				r.camps = CampaignsOf(r.years)
			}
			missing := func(y int) bool { return r.campaigns(y) == nil }
			if i := slices.IndexFunc(e.Years, missing); i >= 0 {
				err := fmt.Errorf("experiment %q needs year %d, which the input does not hold", e.Key, e.Years[i])
				if selected[e] {
					return nil, err
				}
				ev.Skipped = append(ev.Skipped, "skipped: "+err.Error())
				continue
			}
		}
		if e.run(e, r, ev); r.err != nil {
			return nil, fmt.Errorf("experiment %q: %w", e.Key, r.err)
		}
	}
	return ev, nil
}

// FullEvaluation simulates the decade, collected under cc (pipeline
// metrics), and computes every experiment.
func FullEvaluation(seed uint64, scale float64, telescopeSize int, cc CollectConfig) (*Evaluation, error) {
	return Evaluate(Input{Seed: seed, Scale: scale, TelescopeSize: telescopeSize, Collect: cc}, nil)
}

// evalRun is what the rows of one Evaluate call share.
type evalRun struct {
	in    Input
	years []*YearData  // nil when the input is an archive's campaigns
	camps []*Campaigns // ascending by year
	// cover memoizes Figure 8 per year: fig8 and fig9 both read 2024.
	cover map[int][]Figure8Row
	// err is a run's failure; Evaluate stops at the first.
	err error
}

// year returns a simulated year; Evaluate has checked every pinned one exists.
func (r *evalRun) year(y int) *YearData {
	return r.years[slices.IndexFunc(r.years, func(yd *YearData) bool { return yd.Year == y })]
}

// campaigns returns a year's campaigns, nil when the input does not hold it.
func (r *evalRun) campaigns(y int) *Campaigns {
	if i := slices.IndexFunc(r.camps, func(c *Campaigns) bool { return c.Year == y }); i >= 0 {
		return r.camps[i]
	}
	return nil
}

// scenario builds a year's scenario (nil, with r.err set, on invalid
// parameters), sharing the decade's registry when there is one.
func (r *evalRun) scenario(year int) *workload.Scenario {
	cfg := workload.Config{Year: year, Seed: r.in.Seed, Scale: r.in.Scale, TelescopeSize: r.in.TelescopeSize}
	if len(r.years) > 0 {
		cfg.Registry = r.years[0].Registry()
	}
	s, err := workload.NewScenario(cfg)
	r.err = err
	return s
}

// coverage is Figure 8 for one year.
func (r *evalRun) coverage(year int) []Figure8Row {
	if _, done := r.cover[year]; !done {
		if s := r.scenario(year); s != nil {
			r.cover[year] = Figure8(s)
		}
	}
	return r.cover[year]
}

// WriteJSON marshals the evaluation, indented, to w.
func (ev *Evaluation) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ev)
}
