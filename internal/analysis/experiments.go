package analysis

import (
	"fmt"
	"reflect"
	"strings"

	"github.com/synscan/synscan/internal/collab"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/stats"
	"github.com/synscan/synscan/internal/tools"
	"github.com/synscan/synscan/internal/workload"
)

// Need is the input an experiment reads.
type Need int

const (
	NeedScenario  Need = iota // its own simulation from the seed, scale and telescope size
	NeedCampaigns             // detected campaigns only: a simulated decade's or an archive's
	NeedProbes                // the per-probe tallies of a simulated YearData, which no archive holds
)

// Experiment is one row of the experiment table: one artifact of the paper.
type Experiment struct {
	// Key selects the row (`syneval -only`); Alias is a second spelling.
	Key, Alias string
	// Title heads the row's section of the text report. A %d in it stands for
	// a pinned year: the row renders one section per year.
	Title string
	Needs Need
	// Years are the calibration years the row is pinned to; none means every
	// year the input holds.
	Years []int
	// TopN is the row's ranking depth, when it ranks.
	TopN int
	// Fields names the Evaluation fields run fills; Evaluated checks the first.
	Fields []string

	run func(e *Experiment, r *evalRun, ev *Evaluation)
}

// Evaluated reports whether ev holds the row's result.
func (e *Experiment) Evaluated(ev *Evaluation) bool {
	return !reflect.ValueOf(ev).Elem().FieldByName(e.Fields[0]).IsZero()
}

// Lookup returns the row a key selects, nil when there is none.
func Lookup(key string) *Experiment {
	for _, e := range Experiments {
		if key != "" && (key == e.Key || key == e.Alias) {
			return e
		}
	}
	return nil
}

// Keys lists the accepted keys in table order: all of them, or only those an
// archive of campaigns can serve.
func Keys(archived bool) []string {
	var out []string
	for _, e := range Experiments {
		if !archived || e.Needs == NeedCampaigns {
			out = append(out, e.Key)
			if e.Alias != "" {
				out = append(out, e.Alias)
			}
		}
	}
	return out
}

// CheckKeys is Evaluate's check that every key names a row: the error for
// the first one that does not names the keys an input, archived or not,
// accepts.
func CheckKeys(keys []string, archived bool) error {
	for _, k := range keys {
		if Lookup(k) == nil {
			return fmt.Errorf("unknown experiment %q; valid keys: %s", k, strings.Join(Keys(archived), ","))
		}
	}
	return nil
}

// each applies one year's analysis to every year the input holds.
func each[Y, T any](years []Y, analyse func(Y) T) []T {
	out := make([]T, len(years))
	for i, y := range years {
		out[i] = analyse(y)
	}
	return out
}

// Experiments is the one list of the paper's artifacts, in report order:
// syneval's -only keys, every renderer's sections, BenchmarkExperiment and
// DESIGN.md's experiment index follow it, and what each artifact pins down —
// its years, its ranking depth, the Figure 1 event — is stated in its row.
var Experiments = []*Experiment{
	{Key: "table1", Title: "Table 1 — scan volume, top ports, tools (2015-2024)", Needs: NeedProbes, TopN: 5, Fields: []string{"Table1"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) { ev.Table1 = Table1(r.years, e.TopN) }},
	{Key: "table2", Title: "Table 2 — scanner types (sources / scans / packets)", Needs: NeedProbes, Fields: []string{"Table2"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) { ev.Table2 = Table2(r.years) }},
	{Key: "fig1", Title: "Figure 1 — post-disclosure surge and decay (2019, synthetic CVE on port 9898)", Needs: NeedScenario, Years: []int{2019}, Fields: []string{"Figure1"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) {
			ev.Figure1, r.err = Figure1(r.in.Seed, r.in.Scale, r.in.TelescopeSize, e.Years[0],
				workload.Disclosure{Day: 12, Port: 9898, PeakPerDay: 60000, DecayDays: 4})
		}},
	{Key: "zmapdaily", Title: "§4.1 — ZMap campaigns per day (2023 vs 2024)", Needs: NeedCampaigns, Years: []int{2023, 2024}, Fields: []string{"ZMapDaily"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) {
			ev.ZMapDaily = each(e.Years, func(y int) *ZMapDailyResult { return ZMapDaily(r.campaigns(y)) })
		}},
	{Key: "sec42", Title: "§4.2 — origins normalized by address space (2024)", Needs: NeedProbes, Years: []int{2024}, Fields: []string{"Sec42"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) { ev.Sec42 = Sec42Normalized(r.year(e.Years[0])) }},
	{Key: "fig2", Title: "Figure 2 — weekly change per /16 netblock (2020)", Needs: NeedProbes, Years: []int{2020}, Fields: []string{"Figure2"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) { ev.Figure2 = Figure2(r.year(e.Years[0])) }},
	{Key: "fig3", Title: "Figure 3 — distinct ports per source", Needs: NeedProbes, Fields: []string{"Figure3"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) { ev.Figure3 = each(r.years, Figure3) }},
	{Key: "fig4", Title: "Figure 4 — top-10 ports and tool mix (%d)", Needs: NeedProbes, Years: []int{2017, 2020, 2022}, TopN: 10, Fields: []string{"Figure4"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) {
			ev.Figure4 = map[int][]Figure4Port{}
			for _, y := range e.Years {
				ev.Figure4[y] = Figure4(r.year(y), e.TopN)
			}
		}},
	{Key: "fig5", Title: "Figure 5 — scanner types over top-15 ports (2022)", Needs: NeedCampaigns, Years: []int{2022}, TopN: 15, Fields: []string{"Figure5"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) { ev.Figure5 = Figure5(r.campaigns(e.Years[0]), e.TopN) }},
	{Key: "fig6", Title: "Figure 6 — scanner recurrence and downtime (2022)", Needs: NeedCampaigns, Years: []int{2022}, Fields: []string{"Figure6"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) {
			ev.Figure6 = Figure6([]*Campaigns{r.campaigns(e.Years[0])})
		}},
	{Key: "fig7", Title: "Figure 7 — speed and coverage per scanner type (2022)", Needs: NeedCampaigns, Years: []int{2022}, Fields: []string{"Figure7"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) { ev.Figure7 = Figure7(r.campaigns(e.Years[0])) }},
	{Key: "fig8", Title: "Figure 8 — institutional port coverage (2024)", Needs: NeedScenario, Years: []int{2024}, Fields: []string{"Figure8"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) { ev.Figure8 = r.coverage(e.Years[0]) }},
	{Key: "fig9", Alias: "fig10", Title: "Figures 9/10 — institutional port coverage, 2023 vs 2024", Needs: NeedScenario, Years: []int{2023, 2024}, Fields: []string{"Fig910"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) {
			ev.Fig910 = Figure910(r.coverage(e.Years[0]), r.coverage(e.Years[1]))
		}},
	{Key: "sec51", Title: "§5.1 — port-space coverage and alias co-scanning", Needs: NeedProbes, Fields: []string{"Sec51", "ThreePlusTrend"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) {
			svc := inetmodel.NewServiceModel(r.in.Seed)
			ev.Sec51 = each(r.years, func(yd *YearData) *Sec51Result { return Sec51(yd, svc, r.in.Seed) })
			ev.ThreePlusTrend, _ = ThreePlusTrend(ev.Sec51) // stays zero with under three years
		}},
	{Key: "sec52", Title: "§5.2 — vertical scans", Needs: NeedCampaigns, Fields: []string{"Sec52"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) { ev.Sec52 = each(r.camps, Sec52) }},
	{Key: "sec63", Title: "§6.3 — scanning speed by tool (median extrapolated pps)", Needs: NeedCampaigns, Fields: []string{"Sec63", "Top100Trend", "SpeedPorts"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) {
			ev.Sec63 = each(r.camps, Sec63)
			ev.Top100Trend, _ = Top100Trend(ev.Sec63) // stays zero with under three years
			// The §5.3 speed-vs-ports correlation rides along when the input
			// holds its year, 2020.
			if c := r.campaigns(2020); c != nil {
				if sp, err := SpeedPortsCorrelation(c); err == nil {
					ev.SpeedPorts = map[int]stats.PearsonResult{c.Year: sp}
				}
			}
		}},
	{Key: "sec54", Title: "§5.4 — origin-country structure", Needs: NeedProbes, Fields: []string{"Sec54"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) { ev.Sec54 = each(r.years, Sec54) }},
	{Key: "bias", Title: "§7 — benign-scanner measurement bias", Needs: NeedProbes, TopN: 5, Fields: []string{"Bias"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) {
			ev.Bias = each(r.years, func(yd *YearData) *BiasResult { return InstitutionalBias(yd, e.TopN) })
		}},
	{Key: "blockable", Title: "§7 — traffic blockable via tool fingerprints", Needs: NeedProbes, Fields: []string{"Blockable"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) { ev.Blockable = each(r.years, Blockable) }},
	{Key: "blocklist", Title: "§4.4/§6.6 — blocklist staleness (2022)", Needs: NeedScenario, Years: []int{2022}, Fields: []string{"Blocklist"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) {
			if s := r.scenario(e.Years[0]); s != nil {
				ev.Blocklist = BlocklistDecay(s)
			}
		}},
	{Key: "collab", Title: "§4.1/§6.4 — collaborative scan reconstruction", Needs: NeedCampaigns, Fields: []string{"Collab"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) {
			ev.Collab = each(r.camps, func(c *Campaigns) collab.Stats {
				st := collab.Summarize(collab.Detect(c.QualifiedScans(), collab.Config{}))
				st.Year = c.Year
				return st
			})
		}},
	{Key: "vantage", Title: "§7 — vantage-point comparison (2022, two telescopes)", Needs: NeedScenario, Years: []int{2022}, Fields: []string{"Vantage"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) {
			ev.Vantage, r.err = CompareVantage(e.Years[0], r.in.Seed, r.in.Scale, r.in.TelescopeSize,
				r.in.Seed+100, r.in.Seed+200) // two other telescope address sets
		}},
	{Key: "sec64", Title: "§6.4 — ZMap coverage distribution and sharding modes (2024)", Needs: NeedCampaigns, Years: []int{2024}, Fields: []string{"Sec64"},
		run: func(e *Experiment, r *evalRun, ev *Evaluation) {
			ev.Sec64 = Sec64(r.campaigns(e.Years[0]), tools.ToolZMap)
		}},
}
