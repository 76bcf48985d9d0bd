package serve

import (
	"io"
	"net/http"

	"github.com/synscan/synscan/internal/query"
)

// maxQueryBody bounds a POST /v1/query request body; a structurally valid
// request never comes close, and the cap keeps a hostile body from ballooning
// the JSON decoder.
const maxQueryBody = 1 << 20

// handleQuery is POST /v1/query: parse the JSON body → canonicalize →
// generation-keyed cache lookup → the hardened execution path. The cache key
// is the canonicalized query, not the raw body, so every spelling of the same
// request (key order, list order, a default spelled out) shares one entry,
// one singleflight, one admission slot and one deadline.
//
// The books balance: a request counts in query.requests once its method is
// accepted, and then in exactly one of query.parse_errors (refused before
// execution), synserve.cache.hits, server.singleflight.leaders and
// server.singleflight.shared.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, src *sources) error {
	s.mQueryRequests.Inc()
	q, err := parseQuery(r, src)
	if err != nil {
		s.mQueryParseErrors.Inc()
		return err
	}
	return s.execute(w, r, src, q, src.genToken()+q.Key())
}

// parseQuery reads and parses a request body into a canonical query,
// refusing one that reads origins when no source carries them. Every error
// is a 400.
func parseQuery(r *http.Request, src *sources) (*query.Query, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, badRequest("read request body: %v", err)
	}
	q, err := query.Parse(body)
	if err != nil {
		return nil, err
	}
	if q.NeedsOrigin() && !src.hasOrigins() {
		return nil, badRequest("query needs origins, but no loaded archive carries them (write one with syneval -archive-out)")
	}
	return q.Canonicalize(), nil
}

// renderRows is the aggregate-mode wire form: the sorted rows with their
// group keys and per-aggregate values. (Select mode streams; see
// streamScans.)
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
