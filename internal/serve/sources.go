package serve

import (
	"context"
	"log"
	"strconv"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/query"
)

// store is one segment store directory the server was opened over.
type store struct {
	dir string
	cat *archive.Catalog
}

// openStore opens dir, which must be an existing directory, as a segment
// store.
func openStore(dir string, cfg Config, reg *obs.Registry) (*store, error) {
	cat, err := archive.OpenCatalog(dir, archive.CatalogConfig{
		SkipCorrupt: cfg.SkipCorrupt, Workers: cfg.Workers, Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	st := &store{dir: dir, cat: cat}
	st.logState("opened store " + dir + ":")
	return st, nil
}

// close drops the error: everything here is only ever read.
func (st *store) close() { st.cat.Close() }

// pin snapshots the catalog, so a refresh or compaction mid-request never
// changes (or closes) what the request is reading; retired segment readers
// close on their last release.
func (st *store) pin() storeView { return storeView{dir: st.dir, v: st.cat.View()} }

// logState logs the store's current segment set after the given prefix.
func (st *store) logState(prefix string) {
	v := st.cat.View()
	defer v.Release()
	log.Printf("%s %d segments, %d scans, generation %d",
		prefix, v.Len(), v.NumScans(), v.Generation())
}

// refresh re-reads the store's manifest, logging what it discovers. Failures
// (a manifest swap caught mid-read never happens — the write is atomic — but
// a permission or I/O error can) are logged and retried next tick; the last
// good segment set keeps serving.
func (st *store) refresh() {
	changed, err := st.cat.Refresh()
	if err != nil {
		log.Printf("rescan %s: %v", st.dir, err)
	} else if changed {
		st.logState("store " + st.dir + ": now")
	}
}

// storeView is one request's pinned view of a store.
type storeView struct {
	dir string
	v   *archive.CatalogView
}

// degraded reports whether results may be incomplete: corrupt blocks were
// skipped, or a segment is unreadable.
func (sv storeView) degraded() bool { return sv.v.Degraded() }

func (sv storeView) hasOrigins() bool {
	for i := 0; i < sv.v.Len(); i++ {
		if sv.v.Reader(i).HasOrigins() {
			return true
		}
	}
	return false
}

func (sv storeView) info() storeInfo {
	info := storeInfo{
		Dir:        sv.dir,
		Generation: sv.v.Generation(),
		Segments:   sv.v.Len(),
		Scans:      sv.v.NumScans(),
		Unreadable: sv.v.Missing(),
		Origins:    sv.hasOrigins(),
	}
	for i := 0; i < sv.v.Len(); i++ {
		if i == 0 {
			info.TelescopeSize = sv.v.Reader(i).TelescopeSize()
		}
		m := sv.v.Meta(i)
		if m.Scans == 0 {
			continue
		}
		if lo := archive.YearOf(m.MinStart); info.MinYear == 0 || lo < info.MinYear {
			info.MinYear = lo
		}
		if hi := archive.YearOf(m.MaxStart); hi > info.MaxYear {
			info.MaxYear = hi
		}
	}
	return info
}

// sources is one request's frozen view of every store the server can query,
// in the order they were named. Release returns the pins when the response
// is rendered.
type sources struct {
	s    *Server
	pins []storeView
}

func (s *Server) acquire() *sources {
	src := &sources{s: s, pins: make([]storeView, len(s.stores))}
	for i, st := range s.stores {
		src.pins[i] = st.pin()
	}
	return src
}

func (src *sources) release() {
	for _, p := range src.pins {
		p.v.Release()
	}
}

// genToken renders the stores' catalog generations into a cache-key prefix
// ("g3.7|"). Any segment-set change — discovery, compaction, an unreadable
// segment healing — bumps a generation, so bodies cached against the old
// segment set can never be served for the new one.
func (src *sources) genToken() string {
	b := []byte{'g'}
	for i, p := range src.pins {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, p.v.Generation(), 10)
	}
	return string(append(b, '|'))
}

// degraded reports whether results served from these sources may be
// incomplete.
func (src *sources) degraded() bool { return src.any(storeView.degraded) }

// hasOrigins reports whether any queryable segment carries origins.
func (src *sources) hasOrigins() bool { return src.any(storeView.hasOrigins) }

func (src *sources) any(is func(storeView) bool) bool {
	for _, p := range src.pins {
		if is(p) {
			return true
		}
	}
	return false
}

// runQuery executes a validated query against the request's sources through
// the engine: one streaming partial per store under zone-map pushdown,
// merged in source order, inside a singleflight leader.
func (src *sources) runQuery(ctx context.Context, q *query.Query) (*query.Result, error) {
	s := src.s
	sp := obs.StartSpan(s.mQueryExec)
	defer sp.End()
	srcs := make([]query.Source, len(src.pins))
	for i, p := range src.pins {
		srcs[i] = p.v
	}
	res, err := query.Run(ctx, q, srcs...)
	if err != nil {
		return nil, err
	}
	s.mQueryPartials.Add(uint64(len(srcs)))
	if q.SelectMode() {
		s.mQueryRows.Add(uint64(len(res.Scans)))
	} else {
		s.mQueryRows.Add(uint64(len(res.Rows)))
	}
	return res, nil
}
