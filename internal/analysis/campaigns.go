package analysis

import (
	"context"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/query"
	"github.com/synscan/synscan/internal/stats"
	"github.com/synscan/synscan/internal/tools"
)

// CampaignsOf returns the scan-level view of collected years, for the
// analyses that take campaigns.
func CampaignsOf(years []*YearData) []*Campaigns {
	out := make([]*Campaigns, len(years))
	for i, yd := range years {
		out[i] = &yd.Campaigns
	}
	return out
}

// foldReserved classifies reserved space, which the enrichment cannot
// attribute, as Unknown — the one place Table 2's row set is decided.
func foldReserved(t inetmodel.ScannerType) inetmodel.ScannerType {
	if t == inetmodel.TypeReserved {
		return inetmodel.TypeUnknown
	}
	return t
}

// tableOrigin is an origin as Campaigns.ScanOrigins holds it.
func tableOrigin(o enrich.Origin) enrich.Origin {
	o.Type = foldReserved(o.Type)
	return o
}

// QualifiedScans filters the campaign list.
func (c *Campaigns) QualifiedScans() []*core.Scan {
	out := make([]*core.Scan, 0, len(c.Scans))
	for _, sc := range c.Scans {
		if sc.Qualified {
			out = append(out, sc)
		}
	}
	return out
}

// qualified starts the query every campaign table is built on.
func qualified() *query.Builder { return query.NewBuilder().Qualified(true) }

// engineTable runs an aggregate query over in-memory campaigns, one source
// per year, through the query engine — the same streaming executors behind
// the archive service's /v1/query — so the simulator's tables and the served
// tables share one execution path and cannot drift. The queries are static
// and valid and a SliceSource cannot fail under a background context, so an
// error here is an engine invariant violation, not a caller mistake.
func engineTable(b *query.Builder, cs ...*Campaigns) []query.Row {
	q, err := b.Build()
	if err == nil {
		srcs := make([]query.Source, len(cs))
		for i, c := range cs {
			srcs[i] = query.SliceSource{Scans: c.Scans, Origins: c.ScanOrigins}
		}
		var res *query.Result
		if res, err = query.Run(context.Background(), q, srcs...); err == nil {
			return res.Rows
		}
	}
	panic("analysis: engine table query failed: " + err.Error())
}

// count is the number of qualified campaigns passing every filter.
func (c *Campaigns) count(where ...query.Expr) int {
	b := qualified()
	for _, e := range where {
		b.Where(e)
	}
	rows := engineTable(b.Count(), c)
	if len(rows) == 0 {
		return 0 // nothing matched, so the global group never opened
	}
	return int(rows[0].Aggs[0].Count)
}

// atLeast filters on a numeric field's lower bound.
func atLeast(f query.Field, min float64) query.Expr { return query.NumRange(f, &min, nil) }

// ScansPerPort tallies qualified campaigns per targeted port (a multi-port
// campaign counts once per port) — the "top ports by scans" ranking.
func (c *Campaigns) ScansPerPort() *stats.Counter[uint16] {
	out := stats.NewCounter[uint16]()
	for _, row := range engineTable(qualified().GroupBy(query.FieldPort).Count(), c) {
		out.Add(uint16(row.Key[0].Num), row.Aggs[0].Count)
	}
	return out
}

// ToolScanShares returns each tool's share of qualified campaigns.
func (c *Campaigns) ToolScanShares() map[tools.Tool]float64 {
	rows := engineTable(qualified().GroupBy(query.FieldTool).Count(), c)
	var total uint64
	for _, row := range rows {
		total += row.Aggs[0].Count
	}
	out := map[tools.Tool]float64{}
	for _, row := range rows {
		out[tools.Tool(row.Key[0].Num)] = float64(row.Aggs[0].Count) / float64(total)
	}
	return out
}
