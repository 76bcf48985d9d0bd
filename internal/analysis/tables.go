package analysis

import (
	"sync"

	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/query"
	"github.com/synscan/synscan/internal/stats"
	"github.com/synscan/synscan/internal/tools"
	"github.com/synscan/synscan/internal/workload"
)

// PortShare is one row of a top-ports ranking.
type PortShare struct {
	Port  uint16
	Share float64
}

// Table1Row reproduces one year-column of Table 1.
type Table1Row struct {
	Year              int
	PacketsPerDay     float64
	TopPortsByPackets []PortShare
	TopPortsBySources []PortShare
	TopPortsByScans   []PortShare
	ScansPerMonth     float64
	ToolShares        map[tools.Tool]float64
	DistinctSources   int
}

// Table1 computes the paper's headline table from collected years.
func Table1(years []*YearData, topN int) []Table1Row {
	rows := make([]Table1Row, 0, len(years))
	for _, yd := range years {
		row := Table1Row{
			Year:            yd.Year,
			PacketsPerDay:   float64(yd.AcceptedPackets) / float64(yd.Days),
			ToolShares:      yd.ToolScanShares(),
			DistinctSources: len(yd.PortsPerSource),
		}
		row.TopPortsByPackets = topShares(yd.PacketsPerPort, topN)
		row.TopPortsBySources = topShares(yd.SourcesPerPort, topN)
		row.TopPortsByScans = topShares(yd.ScansPerPort(), topN)
		row.ScansPerMonth = float64(len(yd.QualifiedScans())) / (float64(yd.Days) / 30.44)
		rows = append(rows, row)
	}
	return rows
}

func topShares(c *stats.Counter[uint16], n int) []PortShare {
	total := float64(c.Total())
	if total == 0 {
		return nil
	}
	top := c.TopK(n)
	out := make([]PortShare, len(top))
	for i, kv := range top {
		out[i] = PortShare{kv.Key, float64(kv.Count) / total}
	}
	return out
}

// Table2Row is one scanner-type row of Table 2.
type Table2Row struct {
	Type     inetmodel.ScannerType
	Sources  float64 // share of distinct source IPs
	Scans    float64 // share of qualified campaigns
	Packets  float64 // share of accepted probes
	NSources int
	NScans   int
	NPackets uint64
}

// Table2 reproduces the scanner-type breakdown. The paper reports it over
// the whole dataset; pass one or more collected years.
func Table2(years []*YearData) []Table2Row {
	srcN := map[inetmodel.ScannerType]int{}
	scanN := map[inetmodel.ScannerType]int{}
	pktN := map[inetmodel.ScannerType]uint64{}
	var totSrc, totScan int
	var totPkt uint64

	for _, yd := range years {
		for src := range yd.PortsPerSource {
			srcN[foldReserved(yd.reg.Lookup(src).Type)]++
			totSrc++
		}
	}
	for _, r := range engineTable(qualified().GroupBy(query.FieldType).
		Count().Sum(query.FieldPackets), CampaignsOf(years)...) {
		t := inetmodel.ScannerType(r.Key[0].Num)
		scanN[t], pktN[t] = int(r.Aggs[0].Count), r.Aggs[1].Int
		totScan += scanN[t]
		totPkt += pktN[t]
	}

	rows := make([]Table2Row, 0, len(inetmodel.ScannerTypes))
	for _, t := range inetmodel.ScannerTypes {
		row := Table2Row{
			Type: t, NSources: srcN[t], NScans: scanN[t], NPackets: pktN[t],
		}
		if totSrc > 0 {
			row.Sources = float64(srcN[t]) / float64(totSrc)
		}
		if totScan > 0 {
			row.Scans = float64(scanN[t]) / float64(totScan)
		}
		if totPkt > 0 {
			row.Packets = float64(pktN[t]) / float64(totPkt)
		}
		rows = append(rows, row)
	}
	return rows
}

// Decade collects every measured year under cc with a shared registry and
// returns them in order. It is the standard entry point for the multi-year
// experiments. Years are simulated concurrently: each scenario owns its
// telescope and detector, and the shared registry is read-only after
// construction, so the result is identical to a serial run. A non-nil
// cc.Metrics registry is shared by all years: its counters and histograms
// aggregate across the whole decade (the registry is safe for concurrent
// use), while each YearData.PipelineStats holds the snapshot taken as that
// year finished.
func Decade(seed uint64, scale float64, telescopeSize int, cc CollectConfig) ([]*YearData, error) {
	reg := inetmodel.BuildRegistry(seed)
	years := workload.Years()
	out := make([]*YearData, len(years))
	errs := make([]error, len(years))
	var wg sync.WaitGroup
	for i, y := range years {
		wg.Add(1)
		go func(i, y int) {
			defer wg.Done()
			s, err := workload.NewScenario(workload.Config{
				Year: y, Seed: seed, Scale: scale,
				TelescopeSize: telescopeSize, Registry: reg,
			})
			if err != nil {
				errs[i] = err
				return
			}
			out[i] = Collect(s, cc)
		}(i, y)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
