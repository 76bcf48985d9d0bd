package analysis

import (
	"encoding/json"
	"io"

	"github.com/synscan/synscan/internal/collab"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/stats"
	"github.com/synscan/synscan/internal/tools"
	"github.com/synscan/synscan/internal/workload"
)

// Evaluation is the complete machine-readable result set of the paper's
// reproduction: every table, figure and section scalar in one structure.
// It backs `syneval -json` so downstream plotting does not have to scrape
// the text tables.
type Evaluation struct {
	Seed          uint64  `json:"seed"`
	Scale         float64 `json:"scale"`
	TelescopeSize int     `json:"telescopeSize"`

	Table1 []Table1Row `json:"table1"`
	Table2 []Table2Row `json:"table2"`

	Figure1 *Figure1Result `json:"figure1"`
	Figure2 *Figure2Result `json:"figure2_2020"`
	Figure3 []*Figure3Result
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
}

// FullEvaluation simulates the decade, collected under cc (sharded detection,
// pipeline metrics), and computes every experiment.
func FullEvaluation(seed uint64, scale float64, telescopeSize int, cc CollectConfig) (*Evaluation, error) {
	years, err := Decade(seed, scale, telescopeSize, cc)
	if err != nil {
		return nil, err
	}
	byYear := map[int]*YearData{}
	for _, yd := range years {
		byYear[yd.Year] = yd
	}
	scenario := func(year int) (*workload.Scenario, error) {
		return workload.NewScenario(workload.Config{
			Year: year, Seed: seed, Scale: scale, TelescopeSize: telescopeSize,
			Registry: years[0].Registry(),
		})
	}
	c2022 := &byYear[2022].Campaigns
	ev := &Evaluation{
		Seed: seed, Scale: scale, TelescopeSize: telescopeSize,
		Table1:  Table1(years, 5),
		Table2:  Table2(years),
		Figure2: Figure2(byYear[2020]),
		Figure4: map[int][]Figure4Port{},
		Figure5: Figure5(c2022, 15),
		Figure6: Figure6([]*Campaigns{c2022}),
		Figure7: Figure7(c2022),
		Sec64:   Sec64(&byYear[2024].Campaigns, tools.ToolZMap),
	}

	ev.Figure1, err = Figure1(seed, scale, telescopeSize, 2019,
		workload.Disclosure{Day: 12, Port: 9898, PeakPerDay: 60000, DecayDays: 4})
	if err != nil {
		return nil, err
	}
	for _, yd := range years {
		ev.Figure3 = append(ev.Figure3, Figure3(yd))
	}
	for _, y := range []int{2017, 2020, 2022} {
		ev.Figure4[y] = Figure4(byYear[y], 10)
	}

	var cover [2][]Figure8Row
	for i, y := range []int{2023, 2024} {
		s, err := scenario(y)
		if err != nil {
			return nil, err
		}
		cover[i] = Figure8(s)
	}
	ev.Figure8 = cover[1]
	ev.Fig910 = Figure910(cover[0], cover[1])

	svc := inetmodel.NewServiceModel(seed)
	for _, yd := range years {
		ev.Sec51 = append(ev.Sec51, Sec51(yd, svc, seed))
		ev.Sec52 = append(ev.Sec52, Sec52(&yd.Campaigns))
		ev.Sec54 = append(ev.Sec54, Sec54(yd))
		ev.Sec63 = append(ev.Sec63, Sec63(&yd.Campaigns))
		ev.Bias = append(ev.Bias, InstitutionalBias(yd, 5))
		ev.Blockable = append(ev.Blockable, Blockable(yd))
		ev.Collab = append(ev.Collab, collab.Summarize(collab.Detect(yd.QualifiedScans(), collab.Config{})))
	}
	if trend, err := ThreePlusTrend(ev.Sec51); err == nil {
		ev.ThreePlusTrend = trend
	}
	if trend, err := Top100Trend(ev.Sec63); err == nil {
		ev.Top100Trend = trend
	}

	sb, err := scenario(2022)
	if err != nil {
		return nil, err
	}
	ev.Blocklist = BlocklistDecay(sb)

	ev.Sec42 = Sec42Normalized(byYear[2024])
	for _, y := range []int{2023, 2024} {
		ev.ZMapDaily = append(ev.ZMapDaily, ZMapDaily(&byYear[y].Campaigns))
	}
	return ev, nil
}

// WriteJSON marshals the evaluation, indented, to w.
func (ev *Evaluation) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ev)
}
