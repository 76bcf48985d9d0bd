package query

import (
	"context"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
)

// Source is anything the engine can execute a query against under predicate
// pushdown: it streams every scan matching p to emit, in its own stable
// order, with the scan's origin when it has one and p.Fields asks for it
// (nil otherwise). emit is lent each scan and origin until it returns — an
// archive loads the next row into the same memory — so a consumer that keeps
// one copies it (core.Scan.Clone), and none writes to it.
type Source interface {
	Query(ctx context.Context, p archive.Predicate, emit func(sc *core.Scan, o *enrich.Origin)) error
}

// ReaderSource adapts an archive reader: the predicate's zone-map pushdown
// skips blocks without reading them, its projection keeps the reader from
// inflating the strips the query does not read, and scans stream in file
// order.
type ReaderSource struct{ R *archive.Reader }

// Query implements Source.
func (s ReaderSource) Query(ctx context.Context, p archive.Predicate, emit func(sc *core.Scan, o *enrich.Origin)) error {
	return s.R.Query(ctx, p, emit)
}

// SliceSource adapts in-memory scans (the simulator's per-year collections):
// no blocks to prune, the predicate filters scan by scan. Origins, when
// present, must parallel Scans. It hands emit the slices' own scans and
// origins; the Source contract still holds — what emit keeps, it copies — so
// that a consumer works the same over an archive.
type SliceSource struct {
	Scans   []*core.Scan
	Origins []enrich.Origin
}

// Query implements Source.
func (s SliceSource) Query(ctx context.Context, p archive.Predicate, emit func(sc *core.Scan, o *enrich.Origin)) error {
	for i, sc := range s.Scans {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		var op *enrich.Origin
		if s.Origins != nil {
			op = &s.Origins[i]
		}
		if !p.Match(sc, op) {
			continue
		}
		emit(sc, op)
	}
	return nil
}

// Run executes q against the sources in order: one partial Executor per
// source, folded left-to-right, so results are deterministic in source and
// stream order. The query is validated first; aggregation streams — no
// matching-scan list is materialized. A failed source gives back what the
// executors hold, as Finish does.
func Run(ctx context.Context, q *Query, srcs ...Source) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := q.Predicate()
	var total *Executor
	for _, src := range srcs {
		part := NewExecutor(q)
		if err := src.Query(ctx, p, part.Observe); err != nil {
			part.release()
			if total != nil {
				total.release()
			}
			return nil, err
		}
		if total == nil {
			total = part
		} else {
			total.Merge(part)
		}
	}
	if total == nil {
		total = NewExecutor(q)
	}
	return total.Finish()
}
