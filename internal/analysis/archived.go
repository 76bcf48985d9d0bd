package analysis

import (
	"context"
	"fmt"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/query"
	"github.com/synscan/synscan/internal/workload"
)

// ArchiveYear appends one year's campaigns, with their enrichment origins, to
// an archive writer (which must have been created with WriterConfig.Origins).
// Scans are written in order, so CollectArchive reproduces the Scans slice
// exactly.
func ArchiveYear(w *archive.Writer, c *Campaigns) error {
	for i, sc := range c.Scans {
		if err := w.AddWithOrigin(sc, c.ScanOrigins[i]); err != nil {
			return fmt.Errorf("archiving year %d scan %d: %w", c.Year, i, err)
		}
	}
	return nil
}

// CollectArchive rebuilds a measurement year's campaigns from an archive
// instead of re-simulating: campaign detection ran once at archive time, so
// this is a pure indexed read — zone maps prune the blocks whose year range
// excludes the request, and only surviving blocks are decompressed.
//
// Scans, ScanOrigins (when the archive carries origins) and every analysis
// that takes a *Campaigns are identical to the in-memory pipeline's on the
// same workload. The per-probe tallies of a YearData need the raw probe
// stream: analyses that read them must re-simulate or replay a capture.
func CollectArchive(rd *archive.Reader, year int) (*Campaigns, error) {
	prof, err := workload.ProfileFor(year)
	if err != nil {
		return nil, err
	}
	c := &Campaigns{
		Year:          year,
		Days:          prof.Days,
		TelescopeSize: rd.TelescopeSize(),
		Start:         workload.WindowStart(year),
	}
	inYear := (&query.Query{Where: query.YearIn(year)}).Predicate()
	err = rd.Query(context.Background(), inYear, func(sc *core.Scan, o *enrich.Origin) {
		c.Scans = append(c.Scans, sc.Clone()) // sc is only lent until emit returns
		var origin enrich.Origin              // stays zero for an archive without origins
		if o != nil {
			origin = tableOrigin(*o)
		}
		c.ScanOrigins = append(c.ScanOrigins, origin)
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// CollectArchiveYears loads every year present in the archive's zone maps,
// ascending. Years outside the workload's 2015–2024 calibration are
// skipped (the archive may hold replayed real captures from other periods;
// those are queryable via Reader.Query but have no window profile).
func CollectArchiveYears(rd *archive.Reader) ([]*Campaigns, error) {
	present := map[int]bool{}
	for _, z := range rd.Blocks() {
		for y := int(z.MinYear); y <= int(z.MaxYear); y++ {
			present[y] = true
		}
	}
	var out []*Campaigns
	for _, y := range workload.Years() {
		if !present[y] {
			continue
		}
		c, err := CollectArchive(rd, y)
		if err != nil {
			return nil, err
		}
		if len(c.Scans) > 0 {
			out = append(out, c)
		}
	}
	return out, nil
}
