package serve

import (
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/query"
	"github.com/synscan/synscan/internal/tools"
)

// maxQueryBody bounds a POST /v1/query request body; a structurally valid
// request never comes close, and the cap keeps a hostile body from ballooning
// the JSON decoder.
const maxQueryBody = 1 << 20

// compileBody parses the JSON body of POST /v1/query, the typed-AST
// analytical endpoint; any malformed or over-cap request is a 400.
func compileBody(_ *sources, r *http.Request) (*query.Query, renderFunc, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, nil, badRequest("read request body: %v", err)
	}
	q, err := query.Parse(body)
	if err != nil {
		return nil, nil, err
	}
	if q.SelectMode() {
		return q, renderScans, nil
	}
	return q, renderRows, nil
}

// renderScans is the select-mode wire form, shared by /v1/query and
// /v1/scans: matched/returned/truncated and the scans themselves.
func renderScans(res *query.Result, degraded bool) any {
	scans := make([]query.WireScan, 0, len(res.Scans))
	for _, rec := range res.Scans {
		scans = append(scans, rec.Wire())
	}
	return map[string]any{
		"matched":   res.Matched,
		"returned":  len(scans),
		"truncated": res.Truncated,
		"degraded":  degraded,
		"scans":     scans,
	}
}

// renderRows is /v1/query's aggregate-mode wire form: the sorted rows with
// their group keys and per-aggregate values.
func renderRows(res *query.Result, degraded bool) any {
	rows := res.Rows
	if rows == nil {
		rows = []query.Row{}
	}
	return map[string]any{
		"matched":    res.Matched,
		"total_rows": res.TotalRows,
		"rows":       rows,
		"degraded":   degraded,
	}
}

// filterExpr compiles the legacy fixed URL parameters — year, tool, port
// (each repeatable or comma-separated), src (CIDR), minrate/maxrate (pps),
// qualified (bool) — into the query AST, so the deprecated parameter surface
// and POST /v1/query share one filter representation, one pushdown planner
// and one execution path. nil means no filter.
func filterExpr(vals url.Values) (query.Expr, error) {
	var conj []query.Expr
	if vs := splitList(vals["year"]); len(vs) > 0 {
		years := make([]int, 0, len(vs))
		for _, v := range vs {
			y, err := strconv.Atoi(v)
			if err != nil {
				return nil, badRequest("invalid year %q", v)
			}
			years = append(years, y)
		}
		conj = append(conj, query.YearIn(years...))
	}
	if vs := splitList(vals["tool"]); len(vs) > 0 {
		ts := make([]tools.Tool, 0, len(vs))
		for _, v := range vs {
			t, ok := query.FieldTool.ValueByName(v)
			if !ok {
				return nil, badRequest("unknown tool %q (want one of %s)", v, strings.Join(query.FieldTool.ValueNames(), ", "))
			}
			ts = append(ts, tools.Tool(t))
		}
		conj = append(conj, query.ToolIn(ts...))
	}
	if vs := splitList(vals["port"]); len(vs) > 0 {
		ports := make([]uint16, 0, len(vs))
		for _, v := range vs {
			p, err := strconv.ParseUint(v, 10, 16)
			if err != nil {
				return nil, badRequest("invalid port %q", v)
			}
			ports = append(ports, uint16(p))
		}
		conj = append(conj, query.PortAny(ports...))
	}
	if v := vals.Get("src"); v != "" {
		pfx, err := inetmodel.ParsePrefix(v)
		if err != nil {
			return nil, badRequest("invalid src prefix %q: %v", v, err)
		}
		conj = append(conj, query.SrcIn(pfx))
	}
	var minRate, maxRate float64
	var err error
	if v := vals.Get("minrate"); v != "" {
		if minRate, err = strconv.ParseFloat(v, 64); err != nil {
			return nil, badRequest("invalid minrate %q", v)
		}
	}
	if v := vals.Get("maxrate"); v != "" {
		if maxRate, err = strconv.ParseFloat(v, 64); err != nil {
			return nil, badRequest("invalid maxrate %q", v)
		}
	}
	if minRate > 0 || maxRate > 0 {
		conj = append(conj, query.RateBetween(minRate, maxRate))
	}
	if v := vals.Get("qualified"); v != "" {
		want, err := strconv.ParseBool(v)
		if err != nil {
			return nil, badRequest("invalid qualified %q", v)
		}
		// The legacy parameter only ever narrowed (qualified=false was a
		// no-op); compile it the same way.
		if want {
			conj = append(conj, query.Qualified(true))
		}
	}
	switch len(conj) {
	case 0:
		return nil, nil
	case 1:
		return conj[0], nil
	default:
		return query.And(conj...), nil
	}
}

// compileFunc turns one endpoint's request — a JSON body, or a legacy
// endpoint's URL parameters — into an engine query plus the renderer for its
// wire shape. Compilation happens before the cache lookup: the canonicalized
// query IS the cache key, so any two requests that mean the same thing (list
// order, comma vs repeated params, a defaulted limit spelled out) share one
// entry.
type compileFunc func(src *sources, r *http.Request) (*query.Query, renderFunc, error)

// compileScans maps /v1/scans onto a select-mode query (limit default 1000).
func compileScans(src *sources, r *http.Request) (*query.Query, renderFunc, error) {
	vals := r.URL.Query()
	where, err := filterExpr(vals)
	if err != nil {
		return nil, nil, err
	}
	limit := 1000
	if v := vals.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 1 {
			return nil, nil, badRequest("invalid limit %q (want a positive integer)", v)
		}
	}
	return &query.Query{Where: where, Limit: limit}, renderScans, nil
}

// compilePorts maps /v1/tables/ports onto group-by-port with count and the
// split packet sum; the engine's default ordering (count descending, port
// ascending) and row limit reproduce the historical ranking exactly.
func compilePorts(src *sources, r *http.Request) (*query.Query, renderFunc, error) {
	vals := r.URL.Query()
	where, err := filterExpr(vals)
	if err != nil {
		return nil, nil, err
	}
	top := 10
	if v := vals.Get("top"); v != "" {
		if top, err = strconv.Atoi(v); err != nil || top < 1 {
			return nil, nil, badRequest("invalid top %q (want a positive integer)", v)
		}
	}
	q := &query.Query{
		Where:   where,
		GroupBy: []query.Field{query.FieldPort},
		Aggs: []query.Agg{
			{Op: query.OpCount},
			{Op: query.OpSum, Field: query.FieldPackets},
		},
		Limit: top,
	}
	render := func(res *query.Result, degraded bool) any {
		rows := make([]portRow, 0, len(res.Rows))
		for _, r := range res.Rows {
			share := 0.0
			if res.Matched > 0 {
				share = float64(r.Aggs[0].Count) / float64(res.Matched)
			}
			rows = append(rows, portRow{
				Port:    uint16(r.Key[0].Num),
				Scans:   r.Aggs[0].Count,
				Packets: r.Aggs[1].Int,
				Share:   share,
			})
		}
		return map[string]any{"total_scans": res.Matched, "ports": rows, "degraded": degraded}
	}
	return q, render, nil
}

// compileTools maps /v1/tables/tools onto group-by-tool with count and the
// qualified tally (an exact 0/1 integer sum); the renderer walks the
// canonical tool display order, skipping tools with no scans, as the
// hand-rolled tally always did.
func compileTools(src *sources, r *http.Request) (*query.Query, renderFunc, error) {
	vals := r.URL.Query()
	where, err := filterExpr(vals)
	if err != nil {
		return nil, nil, err
	}
	q := &query.Query{
		Where:   where,
		GroupBy: []query.Field{query.FieldTool},
		Aggs: []query.Agg{
			{Op: query.OpCount},
			{Op: query.OpSum, Field: query.FieldQualified},
		},
		Order: query.OrderKey,
	}
	render := func(res *query.Result, degraded bool) any {
		scans := make([]uint64, tools.NumTools())
		qualified := make([]uint64, tools.NumTools())
		for _, r := range res.Rows {
			t := tools.Tool(r.Key[0].Num)
			scans[t] = r.Aggs[0].Count
			qualified[t] = r.Aggs[1].Int
		}
		rows := []toolRow{}
		for _, t := range append([]tools.Tool{tools.ToolUnknown}, tools.Tools...) {
			if scans[t] == 0 {
				continue
			}
			rows = append(rows, toolRow{
				Tool: t.String(), Scans: scans[t], Qualified: qualified[t],
				Share: float64(scans[t]) / float64(res.Matched),
			})
		}
		return map[string]any{"total_scans": res.Matched, "tools": rows, "degraded": degraded}
	}
	return q, render, nil
}

// compileOrigins maps /v1/tables/origins onto group-by-scanner-type with
// count, the unsplit packet sum and an exact distinct-source count. The
// legacy table sorts by scans descending with ties broken by the type NAME
// (a string comparison), which differs from the engine's numeric-key
// tiebreak, so the renderer re-sorts.
func compileOrigins(src *sources, r *http.Request) (*query.Query, renderFunc, error) {
	vals := r.URL.Query()
	if !src.hasOrigins() {
		return nil, nil, badRequest("no loaded archive carries origins (write one with syneval -archive-out)")
	}
	where, err := filterExpr(vals)
	if err != nil {
		return nil, nil, err
	}
	q := &query.Query{
		Where:   where,
		GroupBy: []query.Field{query.FieldType},
		Aggs: []query.Agg{
			{Op: query.OpCount},
			{Op: query.OpSum, Field: query.FieldPackets},
			{Op: query.OpCountDistinct, Field: query.FieldSrc},
		},
		Order: query.OrderKey,
	}
	render := func(res *query.Result, degraded bool) any {
		rows := []originRow{}
		for _, r := range res.Rows {
			rows = append(rows, originRow{
				Type:    r.Key[0].Str,
				Sources: int(r.Aggs[2].Count),
				Scans:   r.Aggs[0].Count,
				Packets: r.Aggs[1].Int,
			})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].Scans != rows[j].Scans {
				return rows[i].Scans > rows[j].Scans
			}
			return rows[i].Type < rows[j].Type
		})
		return map[string]any{"types": rows, "degraded": degraded}
	}
	return q, render, nil
}
