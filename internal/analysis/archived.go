package analysis

import (
	"context"
	"fmt"
	"slices"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/query"
	"github.com/synscan/synscan/internal/workload"
)

// ArchiveYear appends one year's campaigns, with their enrichment origins, to
// a segment store (whose writer must have been opened with
// SegmentConfig.Origins). Scans are written in order, so CollectArchive
// reproduces the Scans slice exactly.
func ArchiveYear(w *archive.SegmentWriter, c *Campaigns) error {
	for i, sc := range c.Scans {
		if err := w.AddWithOrigin(sc, c.ScanOrigins[i]); err != nil {
			return fmt.Errorf("archiving year %d scan %d: %w", c.Year, i, err)
		}
	}
	return nil
}

// CollectArchive rebuilds a measurement year's campaigns from a segment
// store's view instead of re-simulating: campaign detection ran once at
// archive time, so this is a pure indexed read — zone maps prune the blocks
// whose year range excludes the request, and only surviving blocks are
// decompressed.
//
// Scans, ScanOrigins (when the store carries origins) and every analysis
// that takes a *Campaigns are identical to the in-memory pipeline's on the
// same workload. The per-probe tallies of a YearData need the raw probe
// stream: analyses that read them must re-simulate or replay a capture.
func CollectArchive(v *archive.CatalogView, year int) (*Campaigns, error) {
	camps, err := collectArchive(v, []int{year})
	if err != nil {
		return nil, err
	}
	return camps[0], nil
}

// CollectArchiveYears loads every year of the workload's 2015–2024
// calibration that the view holds, ascending, in one pass over the store.
// Other years are skipped (the store may hold replayed real captures from
// other periods; those are queryable through the view but have no window
// profile).
func CollectArchiveYears(v *archive.CatalogView) ([]*Campaigns, error) {
	camps, err := collectArchive(v, workload.Years())
	if err != nil {
		return nil, err
	}
	return slices.DeleteFunc(camps, func(c *Campaigns) bool { return len(c.Scans) == 0 }), nil
}

// collectArchive reads the given calibration years' campaigns from v in one
// pass: one Campaigns per year, in the order given, empty where v holds none.
func collectArchive(v *archive.CatalogView, years []int) ([]*Campaigns, error) {
	out := make([]*Campaigns, len(years))
	byYear := make(map[int]*Campaigns, len(years))
	for i, y := range years {
		prof, err := workload.ProfileFor(y)
		if err != nil {
			return nil, err
		}
		out[i] = &Campaigns{Year: y, Days: prof.Days, Start: workload.WindowStart(y)}
		if v.Len() > 0 {
			out[i].TelescopeSize = v.Reader(0).TelescopeSize()
		}
		byYear[y] = out[i]
	}
	inYears := (&query.Query{Where: query.YearIn(years...)}).Predicate()
	err := v.Query(context.Background(), inYears, func(sc *core.Scan, o *enrich.Origin) {
		byYear[archive.YearOf(sc.Start)].keep(sc, o)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// keep appends a scan lent by a store query, with its origin (zero for a
// store without origins).
func (c *Campaigns) keep(sc *core.Scan, o *enrich.Origin) {
	c.Scans = append(c.Scans, sc.Clone())
	var origin enrich.Origin
	if o != nil {
		origin = tableOrigin(*o)
	}
	c.ScanOrigins = append(c.ScanOrigins, origin)
}
