package analysis

import (
	"context"
	"fmt"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/query"
	"github.com/synscan/synscan/internal/stats"
	"github.com/synscan/synscan/internal/workload"
)

// ArchiveYear appends one collected year's campaigns, with their enrichment
// origins, to an archive writer (which must have been created with
// WriterConfig.Origins). Scans are written in the YearData's order, so an
// archive-backed CollectArchive reproduces the in-memory Scans slice
// exactly.
func ArchiveYear(w *archive.Writer, yd *YearData) error {
	for i, sc := range yd.Scans {
		if err := w.AddWithOrigin(sc, yd.ScanOrigins[i]); err != nil {
			return fmt.Errorf("archiving year %d scan %d: %w", yd.Year, i, err)
		}
	}
	return nil
}

// CollectArchive rebuilds a measurement year's scan-level YearData from an
// archive instead of re-simulating: campaign detection ran once at archive
// time, so this is a pure indexed read — zone maps prune the blocks whose
// year range excludes the request, and only surviving blocks are
// decompressed.
//
// The scan-level view is complete: Scans, ScanOrigins (when the archive
// carries origins), WeeklyScans and every method deriving from them
// (QualifiedScans, ScansPerPort, ToolScanShares) are identical to the
// in-memory pipeline's on the same workload. Packet-level aggregates
// (PacketsPerPort, PacketsPerDay, weekly packet/source churn, country
// tallies) require the raw probe stream and stay empty — analyses that
// need them must re-simulate or replay a capture.
func CollectArchive(rd *archive.Reader, year int) (*YearData, error) {
	prof, err := workload.ProfileFor(year)
	if err != nil {
		return nil, err
	}
	yd := &YearData{
		Year:               year,
		Days:               prof.Days,
		TelescopeSize:      rd.TelescopeSize(),
		Start:              workload.WindowStart(year),
		PacketsPerDay:      make([]uint64, prof.Days+1),
		PacketsPerPort:     stats.NewCounter[uint16](),
		SourcesPerPort:     stats.NewCounter[uint16](),
		PortsPerSource:     make(map[uint32]int),
		PacketsPerToolPort: stats.NewCounter[ToolPort](),
		WeeklySources:      stats.NewCounter[BlockWeek](),
		WeeklyPackets:      stats.NewCounter[BlockWeek](),
		WeeklyScans:        stats.NewCounter[BlockWeek](),
		CountryPackets:     stats.NewCounter[PortCountry](),
		InstPacketsPerPort: stats.NewCounter[uint16](),
		Weeks:              prof.Days / 7,
	}
	inYear := (&query.Query{Where: query.YearIn(year)}).Predicate()
	err = rd.Query(context.Background(), inYear, func(sc *core.Scan, o *enrich.Origin) {
		yd.Scans = append(yd.Scans, sc)
		var origin enrich.Origin // stays zero for an archive without origins
		if o != nil {
			origin = *o
		}
		yd.ScanOrigins = append(yd.ScanOrigins, origin)
	})
	if err != nil {
		return nil, err
	}

	day := int64(24 * 3600 * 1e9)
	for _, sc := range yd.Scans {
		if !sc.Qualified {
			continue
		}
		week := uint8(int((sc.Start - yd.Start) / (7 * day)))
		yd.WeeklyScans.Inc(BlockWeek{inetmodel.Block16(sc.Src), week})
	}
	return yd, nil
}

// CollectArchiveYears loads every year present in the archive's zone maps,
// ascending. Years outside the workload's 2015–2024 calibration are
// skipped (the archive may hold replayed real captures from other periods;
// those are queryable via Reader.Scans but have no YearData profile).
func CollectArchiveYears(rd *archive.Reader) ([]*YearData, error) {
	present := map[int]bool{}
	for _, z := range rd.Blocks() {
		for y := int(z.MinYear); y <= int(z.MaxYear); y++ {
			present[y] = true
		}
	}
	var out []*YearData
	for _, y := range workload.Years() {
		if !present[y] {
			continue
		}
		yd, err := CollectArchive(rd, y)
		if err != nil {
			return nil, err
		}
		if len(yd.Scans) > 0 {
			out = append(out, yd)
		}
	}
	return out, nil
}
