package analysis

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/stats"
	"github.com/synscan/synscan/internal/tools"
)

// The ref* functions are the hand-rolled tallies the engine-backed tables
// computed before they were rewired through the query engine, kept here as
// the parity references.

func refScansPerPort(c *Campaigns) *stats.Counter[uint16] {
	out := stats.NewCounter[uint16]()
	for _, sc := range c.Scans {
		if !sc.Qualified {
			continue
		}
		for _, p := range sc.Ports {
			out.Inc(p)
		}
	}
	return out
}

func refToolScanShares(c *Campaigns) map[tools.Tool]float64 {
	counts := map[tools.Tool]int{}
	total := 0
	for _, sc := range c.Scans {
		if !sc.Qualified {
			continue
		}
		counts[sc.Tool]++
		total++
	}
	out := map[tools.Tool]float64{}
	for tl, n := range counts {
		out[tl] = float64(n) / float64(total)
	}
	return out
}

// refTable2 is Table 2's scan and packet columns (the source column was and
// is a per-probe tally).
func refTable2(cs []*Campaigns) (scanN map[inetmodel.ScannerType]int, pktN map[inetmodel.ScannerType]uint64) {
	scanN, pktN = map[inetmodel.ScannerType]int{}, map[inetmodel.ScannerType]uint64{}
	for _, c := range cs {
		for i, sc := range c.Scans {
			if !sc.Qualified {
				continue
			}
			t := foldReserved(c.ScanOrigins[i].Type)
			scanN[t]++
			pktN[t] += sc.Packets
		}
	}
	return scanN, pktN
}

func refFigure5(c *Campaigns, topN int) []Figure5Port {
	perPortType := stats.NewCounter[portType]()
	perPort := stats.NewCounter[uint16]()
	for i, sc := range c.Scans {
		if !sc.Qualified {
			continue
		}
		t := foldReserved(c.ScanOrigins[i].Type)
		for _, p := range sc.Ports {
			perPort.Inc(p)
			perPortType.Inc(portType{p, t})
		}
	}
	top := perPort.TopK(topN)
	out := make([]Figure5Port, 0, len(top))
	for _, kv := range top {
		fp := Figure5Port{Port: kv.Key, Scans: int(kv.Count), TypeShare: map[inetmodel.ScannerType]float64{}}
		for _, t := range inetmodel.ScannerTypes {
			fp.TypeShare[t] = float64(perPortType.Get(portType{kv.Key, t})) / float64(kv.Count)
		}
		out = append(out, fp)
	}
	return out
}

func refFigure7(c *Campaigns) []Figure7Row {
	speeds := map[inetmodel.ScannerType][]float64{}
	covs := map[inetmodel.ScannerType][]float64{}
	for i, sc := range c.Scans {
		if !sc.Qualified {
			continue
		}
		t := foldReserved(c.ScanOrigins[i].Type)
		speeds[t] = append(speeds[t], sc.RatePPS)
		covs[t] = append(covs[t], sc.Coverage)
	}
	var rows []Figure7Row
	for _, t := range inetmodel.ScannerTypes {
		ss := speeds[t]
		if len(ss) == 0 {
			continue
		}
		rows = append(rows, Figure7Row{
			Type:           t,
			MeanSpeedPPS:   stats.Mean(ss),
			MedianSpeedPPS: stats.Median(ss),
			Above1000PPS:   shareAtLeast(ss, 1000),
			MeanCoverage:   stats.Mean(covs[t]),
			Scans:          len(ss),
		})
	}
	return rows
}

// refSec51 is the co-scan and >= 3-port tally of Sec51.
func refSec51(c *Campaigns) (coScan, threePlus float64) {
	with80, both, three, total := 0, 0, 0, 0
	for i, sc := range c.Scans {
		if !sc.Qualified {
			continue
		}
		total++
		if len(sc.Ports) >= 3 {
			three++
		}
		if c.ScanOrigins[i].Type == inetmodel.TypeInstitutional {
			continue
		}
		has80, has8080 := false, false
		for _, p := range sc.Ports {
			if p == 80 {
				has80 = true
			}
			if p == 8080 {
				has8080 = true
			}
		}
		if has80 {
			with80++
			if has8080 {
				both++
			}
		}
	}
	if with80 > 0 {
		coScan = float64(both) / float64(with80)
	}
	if total > 0 {
		threePlus = float64(three) / float64(total)
	}
	return coScan, threePlus
}

func refSec52(c *Campaigns) *Sec52Result {
	res := &Sec52Result{Year: c.Year}
	var speedsAll, speedsBig []float64
	total := 0
	for _, sc := range c.Scans {
		if !sc.Qualified {
			continue
		}
		total++
		n := len(sc.Ports)
		if n > res.LargestPortCount {
			res.LargestPortCount = n
		}
		if n > 100 {
			res.Over100++
		}
		if n > 1000 {
			res.Over1000++
			speedsBig = append(speedsBig, sc.SpeedMbps())
		}
		if n > 10000 {
			res.Over10000++
		}
		speedsAll = append(speedsAll, sc.SpeedMbps())
	}
	if total > 0 {
		res.Share1000 = float64(res.Over1000) / float64(total)
	}
	res.MeanSpeedAllMbps = stats.Mean(speedsAll)
	res.MeanSpeedOver1000Mbps = stats.Mean(speedsBig)
	return res
}

func refSec63(c *Campaigns) *Sec63Result {
	byTool := map[tools.Tool][]float64{}
	var all []float64
	for _, sc := range c.Scans {
		if !sc.Qualified {
			continue
		}
		byTool[sc.Tool] = append(byTool[sc.Tool], sc.RatePPS)
		all = append(all, sc.RatePPS)
	}
	res := &Sec63Result{
		Year:      c.Year,
		MedianPPS: map[tools.Tool]float64{},
		MeanPPS:   map[tools.Tool]float64{},
	}
	for tl, ss := range byTool {
		res.MedianPPS[tl] = stats.Median(ss)
		res.MeanPPS[tl] = stats.Mean(ss)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	top := all
	if len(top) > 100 {
		top = top[:100]
	}
	res.Top100MeanPPS = stats.Mean(top)
	res.OverallMedianPPS = stats.Median(all)
	return res
}

// withReserved is the year with every seventh campaign re-attributed to
// reserved space, as a replayed capture can have it and the simulation never
// does. Origins are folded the way collection folds them, so the tables must
// count those campaigns as Unknown, interleaved with the real Unknown ones.
func withReserved(c *Campaigns) *Campaigns {
	out := *c
	out.ScanOrigins = make([]enrich.Origin, len(c.ScanOrigins))
	for i, o := range c.ScanOrigins {
		if i%7 == 0 {
			o = enrich.Origin{Type: inetmodel.TypeReserved, OrgID: -1}
		}
		out.ScanOrigins[i] = tableOrigin(o)
	}
	return &out
}

// TestEngineTableParity proves the engine-backed analysis tables identical to
// the hand-rolled tallies they replaced — as structs and as rendered JSON
// bytes — on every simulated year, in the sequential detector's close order
// and in the sharded detector's merge order (an archive `synalyze -workers N`
// wrote holds that order). Counts are exact integers,
// shares divide the same integers, the executor's float sums accumulate in
// scan order as stats.Mean does and its quantiles interpolate with the same
// function as stats.Median, so even the float results match bit for bit.
func TestEngineTableParity(t *testing.T) {
	t.Parallel()
	seq := CampaignsOf(decade(t))
	merged := make([]*Campaigns, len(seq))
	for i, c := range seq {
		merged[i] = mergeOrdered(c)
	}
	years := append(append([]*Campaigns(nil), seq...), merged...)
	for _, c := range seq {
		years = append(years, withReserved(c))
	}
	same := func(c *Campaigns, table string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("year %d: %s differs from the hand-rolled tally:\n got %+v\nwant %+v", c.Year, table, got, want)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("year %d: %s bytes differ:\n%s\n%s", c.Year, table, gotJSON, wantJSON)
		}
	}
	svc := inetmodel.NewServiceModel(testSeed)
	for _, c := range years {
		gotPorts, wantPorts := c.ScansPerPort(), refScansPerPort(c)
		if !reflect.DeepEqual(gotPorts, wantPorts) {
			t.Fatalf("year %d: ScansPerPort differs from hand-rolled tally", c.Year)
		}
		same(c, "top ports by scans", topShares(gotPorts, 10), topShares(wantPorts, 10))
		same(c, "ToolScanShares", c.ToolScanShares(), refToolScanShares(c))
		same(c, "Figure5", Figure5(c, 15), refFigure5(c, 15))
		same(c, "Figure7", Figure7(c), refFigure7(c))
		same(c, "Sec52", Sec52(c), refSec52(c))
		same(c, "Sec63", Sec63(c), refSec63(c))

		yd := &YearData{Campaigns: *c, PacketsPerPort: stats.NewCounter[uint16]()}
		got51 := Sec51(yd, svc, testSeed)
		coScan, threePlus := refSec51(c)
		same(c, "Sec51 co-scan and >= 3 ports",
			[]float64{got51.CoScan80_8080, got51.ThreePlusShare}, []float64{coScan, threePlus})
	}

	// Table 2 is over the whole decade: one source per year, merged.
	for _, decade := range [][]*Campaigns{seq, merged, years[20:]} {
		wantScans, wantPackets := refTable2(decade)
		yds := make([]*YearData, len(decade))
		for i, c := range decade {
			yds[i] = &YearData{Campaigns: *c}
		}
		for _, row := range Table2(yds) {
			if row.NScans != wantScans[row.Type] || row.NPackets != wantPackets[row.Type] {
				t.Fatalf("Table2 %v: %d scans, %d packets; the hand-rolled tally has %d, %d",
					row.Type, row.NScans, row.NPackets, wantScans[row.Type], wantPackets[row.Type])
			}
		}
	}
}
