package archive

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"sync"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/obs"
)

// CatalogConfig parameterizes OpenCatalog.
type CatalogConfig struct {
	// SkipCorrupt is the catalog's failure policy. Strict (false), a read
	// of a view fails on the first damaged block, and before it streams
	// anything if a listed segment is unreadable (truncated file, bad
	// trailer), naming the segment. Skip-corrupt, a damaged block is skipped
	// and counted (Reader.CorruptBlocks) and an unreadable segment is left out
	// of the view and counted (CatalogView.Missing): one damaged segment
	// costs its own scans, never the store, and the view is Degraded. Either
	// way a segment that reads again rejoins on the next Refresh.
	SkipCorrupt bool
	// Workers bounds each segment reader's block-decode pool (see
	// Reader.SetWorkers); 0 keeps the reader default.
	Workers int
	// Metrics, when non-nil, instruments refreshes: archive.catalog.refreshes,
	// archive.catalog.refresh_ns, archive.catalog.segments,
	// archive.catalog.generation, archive.segments.unreadable.
	Metrics *obs.Registry
}

// Catalog is the read side of a segment store: it mirrors the directory's
// manifest into a set of open Readers, picking up newly sealed segments and
// dropping compacted-away ones on every Refresh without ever restarting the
// process. Queries run against a View — an immutable, reference-counted
// snapshot of the segment set — so a Refresh (or the compaction behind it)
// never yanks a reader out from under an in-flight query: a retired
// segment's reader stays open until the last view using it is released, and
// the deleted file's data stays readable through the held descriptor.
type Catalog struct {
	dir string
	cfg CatalogConfig

	mu         sync.Mutex
	gen        uint64 // bumps whenever the visible segment set changes
	segs       map[string]*catSegment
	order      []string        // visible segments, manifest order
	unreadable map[string]bool // listed segments that failed to open
	missing    []error         // their open errors, manifest order
	closed     bool

	// afterManifestRead, when set, runs between Refresh's manifest read and
	// its segment opens (tests use it to publish a compaction there).
	afterManifestRead func()

	mRefreshes  *obs.Counter
	mUnreadable *obs.Counter
	mRefreshNS  *obs.Histogram
	gSegments   *obs.Gauge
	gGeneration *obs.Gauge
}

// catSegment is one open segment reader plus its view refcount.
type catSegment struct {
	name    string
	meta    SegmentMeta
	rd      *Reader
	refs    int
	retired bool
}

// OpenCatalog opens a segment store directory for querying and performs the
// initial Refresh. dir must be an existing directory; one without a manifest
// is an empty store (it serves zero scans until segments appear). See
// CatalogConfig.SkipCorrupt for what a view of a damaged store serves.
func OpenCatalog(dir string, cfg CatalogConfig) (*Catalog, error) {
	c := &Catalog{
		dir:        dir,
		cfg:        cfg,
		segs:       map[string]*catSegment{},
		unreadable: map[string]bool{},

		mRefreshes:  cfg.Metrics.Counter("archive.catalog.refreshes"),
		mUnreadable: cfg.Metrics.Counter("archive.segments.unreadable"),
		mRefreshNS:  cfg.Metrics.Histogram("archive.catalog.refresh_ns"),
		gSegments:   cfg.Metrics.Gauge("archive.catalog.segments"),
		gGeneration: cfg.Metrics.Gauge("archive.catalog.generation"),
	}
	if _, err := c.Refresh(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Dir returns the store directory.
func (c *Catalog) Dir() string { return c.dir }

// Generation returns the catalog's change counter: it increments whenever
// the visible segment set changes (a new segment discovered, a segment
// compacted away, an unreadable segment healing on retry). synserve folds it
// into cache keys so cached bodies die with the segment set they were
// computed from.
func (c *Catalog) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Refresh re-reads the manifest and reconciles the open reader set with it,
// reporting whether the visible segment set changed. Safe to call
// concurrently with View/Release; in-flight queries keep the segment set
// they acquired.
func (c *Catalog) Refresh() (changed bool, err error) {
	sp := obs.StartSpan(c.mRefreshNS)
	defer sp.End()
	c.mRefreshes.Inc()
	man, err := readManifest(c.dir)
	if err != nil {
		return false, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false, fmt.Errorf("archive: Refresh on closed catalog %s", c.dir)
	}

	if c.afterManifestRead != nil {
		c.afterManifestRead()
	}
	var order []string
	var missing []error
	want, unreadable := map[string]bool{}, map[string]bool{}
	for {
		vanished := false
		order, missing = order[:0], missing[:0]
		clear(want)
		clear(unreadable)
		for _, meta := range man.Segments {
			want[meta.Name] = true
			if seg, ok := c.segs[meta.Name]; ok && !seg.retired {
				order = append(order, meta.Name)
				continue
			}
			rd, oerr := openSegment(c.dir, meta.Name, c.cfg.SkipCorrupt)
			if oerr != nil {
				unreadable[meta.Name] = true
				missing = append(missing, fmt.Errorf("archive: segment %s of %s is unreadable: %w", meta.Name, c.dir, oerr))
				vanished = vanished || errors.Is(oerr, fs.ErrNotExist)
				continue
			}
			if c.cfg.Workers > 0 {
				rd.SetWorkers(c.cfg.Workers)
			}
			rd.SetMetrics(c.cfg.Metrics)
			c.segs[meta.Name] = &catSegment{name: meta.Name, meta: meta, rd: rd}
			order = append(order, meta.Name)
			changed = true
		}
		if !vanished {
			break
		}
		// A listed segment is gone: a compaction may have published a new
		// manifest since man was read. The compactor unlinks its inputs only
		// after publishing, so if the generation moved, reconcile against the
		// new manifest; the segment is unreadable only if it did not.
		next, err := readManifest(c.dir)
		if err != nil || next.Generation == man.Generation {
			break
		}
		man = next
	}

	// Retire segments the manifest no longer lists (compacted away). Their
	// readers close when the last holding view releases.
	for name, seg := range c.segs {
		if want[name] || seg.retired {
			continue
		}
		seg.retired = true
		changed = true
		if seg.refs == 0 {
			seg.rd.Close()
			delete(c.segs, name)
		}
	}
	for name := range unreadable {
		if !c.unreadable[name] {
			c.mUnreadable.Inc()
		}
	}
	if !maps.Equal(unreadable, c.unreadable) {
		changed = true
	}
	c.unreadable, c.missing = unreadable, missing
	c.order = order
	if changed {
		c.gen++
	}
	c.gSegments.Set(int64(len(order)))
	c.gGeneration.Set(int64(c.gen))
	return changed, nil
}

// View snapshots the current segment set for one query. The snapshot is
// immutable: refreshes and compactions happening while the query runs do
// not affect it. Release it when done — readers retired meanwhile close on
// the last release.
func (c *Catalog) View() *CatalogView {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := &CatalogView{c: c, gen: c.gen, missing: c.missing}
	for _, name := range c.order {
		seg := c.segs[name]
		seg.refs++
		v.segs = append(v.segs, seg)
	}
	return v
}

// Close releases every reader. Views already acquired stay valid; their
// readers close as they release.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for name, seg := range c.segs {
		seg.retired = true
		if seg.refs == 0 {
			seg.rd.Close()
			delete(c.segs, name)
		}
	}
	c.order = nil
	return nil
}

// CatalogView is one query's frozen segment set, in manifest (= emit) order.
type CatalogView struct {
	c        *Catalog
	gen      uint64
	segs     []*catSegment
	missing  []error // the unreadable listed segments' open errors
	released bool
}

// Generation returns the catalog generation the view was taken at.
func (v *CatalogView) Generation() uint64 { return v.gen }

// Len returns the number of segments in the view.
func (v *CatalogView) Len() int { return len(v.segs) }

// Reader returns the i-th segment's reader.
func (v *CatalogView) Reader(i int) *Reader { return v.segs[i].rd }

// Name returns the i-th segment's file name.
func (v *CatalogView) Name(i int) string { return v.segs[i].name }

// Meta returns the i-th segment's manifest entry.
func (v *CatalogView) Meta(i int) SegmentMeta { return v.segs[i].meta }

// Missing returns how many manifest-listed segments were unreadable when the
// view was taken — served queries are missing their scans (degraded).
func (v *CatalogView) Missing() int { return len(v.missing) }

// Degraded reports whether results served from this view may be incomplete:
// a segment was unreadable, or some reader skipped corrupt blocks.
func (v *CatalogView) Degraded() bool {
	if len(v.missing) > 0 {
		return true
	}
	for _, seg := range v.segs {
		if seg.rd.CorruptBlocks() > 0 {
			return true
		}
	}
	return false
}

// Query streams every scan of the view that p matches to emit, segment by
// segment in manifest order, so the stream is the store's emit order (see
// Reader.Query for what emit is lent). A strict catalog's view that misses a
// listed segment fails before streaming anything, with an error naming the
// segment; a skip-corrupt one serves the segments it holds.
func (v *CatalogView) Query(ctx context.Context, p Predicate, emit func(sc *core.Scan, o *enrich.Origin)) error {
	if len(v.missing) > 0 && !v.c.cfg.SkipCorrupt {
		return v.missing[0]
	}
	for _, seg := range v.segs {
		if err := seg.rd.Query(ctx, p, emit); err != nil {
			return err
		}
	}
	return nil
}

// Release returns the view's references; retired readers close on their
// last release. Idempotent.
func (v *CatalogView) Release() {
	if v.released {
		return
	}
	v.released = true
	v.c.mu.Lock()
	defer v.c.mu.Unlock()
	for _, seg := range v.segs {
		seg.refs--
		if seg.retired && seg.refs == 0 {
			seg.rd.Close()
			delete(v.c.segs, seg.name)
		}
	}
}

// NumScans sums the view's per-segment scan counts (from the manifest).
func (v *CatalogView) NumScans() uint64 {
	var n uint64
	for _, seg := range v.segs {
		n += seg.meta.Scans
	}
	return n
}

// removeSegmentFiles deletes sealed segment files after compaction has
// published a manifest without them. Open descriptors (retired readers still
// held by views) keep the data readable until released.
func removeSegmentFiles(dir string, names []string) {
	for _, name := range names {
		if path, err := segmentPath(dir, name); err == nil {
			os.Remove(path)
		}
	}
	syncDir(dir)
}
