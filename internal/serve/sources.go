package serve

import (
	"context"
	"log"
	"os"
	"strconv"
	"strings"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/query"
)

// source is one thing the server was opened over: a static archive file or
// a live segment store.
type source interface {
	// pin freezes the source for one request. Cheap: at most a refcount
	// bump, no I/O.
	pin() pinned
	// refresh looks for newly sealed segments; a static file has none.
	refresh()
	// close drops the error: everything here is only ever read.
	close()
}

// openSource opens arg as a store if it is a directory, else as a file.
func openSource(arg string, cfg Config, reg *obs.Registry) (source, error) {
	if fi, err := os.Stat(arg); err == nil && fi.IsDir() {
		cat, err := archive.OpenCatalog(arg, archive.CatalogConfig{
			SkipCorrupt: cfg.SkipCorrupt, Workers: cfg.Workers, Metrics: reg,
		})
		if err != nil {
			return nil, err
		}
		st := &store{dir: arg, cat: cat}
		st.logState("opened store " + arg + ":")
		return st, nil
	}
	var opts []archive.ReaderOption
	if cfg.SkipCorrupt {
		opts = append(opts, archive.WithSkipCorrupt())
	}
	rd, err := archive.Open(arg, opts...)
	if err != nil {
		return nil, err
	}
	rd.SetWorkers(cfg.Workers)
	rd.SetMetrics(reg)
	log.Printf("loaded %s: %d blocks, %d scans, telescope %d, origins=%v",
		arg, rd.NumBlocks(), rd.NumScans(), rd.TelescopeSize(), rd.HasOrigins())
	return &file{path: arg, rd: rd}, nil
}

// pinned is a source as one request sees it.
type pinned interface {
	querySource() query.Source
	// generation is the catalog generation of a live store; ok is false for
	// a static file, whose content is fixed for the process lifetime.
	generation() (gen uint64, ok bool)
	// degraded reports whether results may be incomplete: corrupt blocks
	// were skipped, or a store is missing an unreadable segment.
	degraded() bool
	hasOrigins() bool
	// info describes the source in /v1/stats: an archiveInfo or a storeInfo.
	info() any
	release()
}

// file is a static sealed archive. It never changes, so it is its own pin.
type file struct {
	path string
	rd   *archive.Reader
}

func (f *file) pin() pinned                { return f }
func (f *file) close()                     { f.rd.Close() }
func (f *file) refresh()                   {}
func (f *file) release()                   {}
func (f *file) querySource() query.Source  { return query.ReaderSource{R: f.rd} }
func (f *file) generation() (uint64, bool) { return 0, false }
func (f *file) degraded() bool             { return f.rd.CorruptBlocks() > 0 }
func (f *file) hasOrigins() bool           { return f.rd.HasOrigins() }

func (f *file) info() any {
	// MinYear and MaxYear come from the zone maps (the exact year set would
	// need a decode).
	minY, maxY := 0, 0
	for _, z := range f.rd.Blocks() {
		if minY == 0 || int(z.MinYear) < minY {
			minY = int(z.MinYear)
		}
		if int(z.MaxYear) > maxY {
			maxY = int(z.MaxYear)
		}
	}
	return archiveInfo{
		Path: f.path, Blocks: f.rd.NumBlocks(), Scans: f.rd.NumScans(),
		TelescopeSize: f.rd.TelescopeSize(), Origins: f.rd.HasOrigins(),
		MinYear: minY, MaxYear: maxY,
	}
}

// store is a live segment store directory.
type store struct {
	dir string
	cat *archive.Catalog
}

func (st *store) close() { st.cat.Close() }

// pin snapshots the catalog, so a refresh or compaction mid-request never
// changes (or closes) what the request is reading; retired segment readers
// close on their last release.
func (st *store) pin() pinned { return storeView{dir: st.dir, v: st.cat.View()} }

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

func (sv storeView) release()                   { sv.v.Release() }
func (sv storeView) querySource() query.Source  { return query.ViewSource{V: sv.v} }
func (sv storeView) generation() (uint64, bool) { return sv.v.Generation(), true }
func (sv storeView) degraded() bool             { return sv.v.Degraded() }

func (sv storeView) hasOrigins() bool {
	for i := 0; i < sv.v.Len(); i++ {
		if sv.v.Reader(i).HasOrigins() {
			return true
		}
	}
	return false
}

func (sv storeView) info() any {
	return storeInfo{
		Dir:        sv.dir,
		Generation: sv.v.Generation(),
		Segments:   sv.v.Len(),
		Scans:      sv.v.NumScans(),
		Unreadable: sv.v.Missing(),
	}
}

// sources is one request's frozen view of everything the server can query,
// in the server's source order. Release returns the pins when the response
// is rendered.
type sources struct {
	s    *Server
	pins []pinned
}

func (s *Server) acquire() *sources {
	src := &sources{s: s, pins: make([]pinned, len(s.srcs))}
	for i, o := range s.srcs {
		src.pins[i] = o.pin()
	}
	return src
}

func (src *sources) release() {
	for _, p := range src.pins {
		p.release()
	}
}

// genToken renders the stores' catalog generations into a cache-key prefix
// ("g3.7|"). Any segment-set change — discovery, compaction, an unreadable
// segment healing — bumps a generation, so bodies cached against the old
// segment set can never be served for the new one. Static-file-only servers
// get the empty token: their archive set is fixed for the process lifetime.
func (src *sources) genToken() string {
	var b strings.Builder
	for _, p := range src.pins {
		gen, ok := p.generation()
		if !ok {
			continue
		}
		if b.Len() == 0 {
			b.WriteByte('g')
		} else {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatUint(gen, 10))
	}
	if b.Len() > 0 {
		b.WriteByte('|')
	}
	return b.String()
}

// degraded reports whether results served from these sources may be
// incomplete.
func (src *sources) degraded() bool { return src.any(pinned.degraded) }

// hasOrigins reports whether any queryable archive carries origins.
func (src *sources) hasOrigins() bool { return src.any(pinned.hasOrigins) }

func (src *sources) any(is func(pinned) bool) bool {
	for _, p := range src.pins {
		if is(p) {
			return true
		}
	}
	return false
}

// runQuery executes a validated query against the request's sources through
// the engine: one streaming partial per source under zone-map pushdown,
// merged in source order, inside a singleflight leader.
func (src *sources) runQuery(ctx context.Context, q *query.Query) (*query.Result, error) {
	s := src.s
	sp := obs.StartSpan(s.mQueryExec)
	defer sp.End()
	srcs := make([]query.Source, len(src.pins))
	for i, p := range src.pins {
		srcs[i] = p.querySource()
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
