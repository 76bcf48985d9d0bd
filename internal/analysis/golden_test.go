package analysis

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/tools"
)

// goldenDecadeHash pins the complete analytical output of the fixed-seed
// decade workload: the qualified-campaign table plus the per-year port and
// tool tables. Any change to the workload generators, telescope filtering,
// campaign detection or table computation that alters results shows up as a
// mismatch here. If a change is *intended* to alter results, rerun with
// -run TestGoldenDecade -v and copy the printed hash into this constant —
// the diff then documents that the pipeline's output changed.
const goldenDecadeHash = "c843b371461234e0fb43339e5bb66f00082a55a728321c4fbfeab4c8659272b1"

// hashU64 writes one little-endian uint64 into h.
func hashU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// hashF64 writes a float's exact bit pattern — golden comparison must be
// bit-exact, not tolerance-based, or it cannot catch small regressions.
func hashF64(h hash.Hash, v float64) { hashU64(h, math.Float64bits(v)) }

// hashScan folds every externally meaningful field of a campaign.
func hashScan(h hash.Hash, sc *core.Scan) {
	hashU64(h, uint64(sc.Src))
	hashU64(h, uint64(sc.Start))
	hashU64(h, uint64(sc.End))
	hashU64(h, sc.Packets)
	hashU64(h, uint64(sc.DistinctDsts))
	hashU64(h, uint64(len(sc.Ports)))
	for _, p := range sc.Ports {
		hashU64(h, uint64(p))
	}
	hashU64(h, uint64(sc.Tool))
	hashF64(h, sc.RatePPS)
	hashF64(h, sc.Coverage)
}

// decadeHash canonicalizes and hashes a collected decade. Qualified scans
// are sorted by (End, Start, Src) — the sharded detector's merge order — so
// the hash does not depend on emit order; table maps are walked in sorted key
// order.
func decadeHash(years []*YearData) string {
	h := sha256.New()
	for _, yd := range years {
		hashU64(h, uint64(yd.Year))
		hashU64(h, uint64(yd.Days))
		hashU64(h, uint64(yd.TelescopeSize))
		hashU64(h, yd.AcceptedPackets)
		hashU64(h, uint64(len(yd.PortsPerSource)))

		scans := yd.QualifiedScans()
		sorted := append([]*core.Scan(nil), scans...)
		sort.Slice(sorted, func(i, j int) bool {
			a, b := sorted[i], sorted[j]
			if a.End != b.End {
				return a.End < b.End
			}
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			return a.Src < b.Src
		})
		hashU64(h, uint64(len(sorted)))
		for _, sc := range sorted {
			hashScan(h, sc)
		}
	}
	// The per-year port and tool tables, exactly as Table1 reports them.
	for _, row := range Table1(years, 10) {
		hashU64(h, uint64(row.Year))
		hashF64(h, row.PacketsPerDay)
		hashF64(h, row.ScansPerMonth)
		hashU64(h, uint64(row.DistinctSources))
		for _, shares := range [][]PortShare{
			row.TopPortsByPackets, row.TopPortsBySources, row.TopPortsByScans,
		} {
			hashU64(h, uint64(len(shares)))
			for _, ps := range shares {
				hashU64(h, uint64(ps.Port))
				hashF64(h, ps.Share)
			}
		}
		ts := make([]tools.Tool, 0, len(row.ToolShares))
		for tl := range row.ToolShares {
			ts = append(ts, tl)
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		hashU64(h, uint64(len(ts)))
		for _, tl := range ts {
			hashU64(h, uint64(tl))
			hashF64(h, row.ToolShares[tl])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenDecade: the fixed-seed decade's full analytical output must
// match the pinned hash.
func TestGoldenDecade(t *testing.T) {
	got := decadeHash(decade(t))
	t.Logf("decade hash: %s", got)
	if got != goldenDecadeHash {
		t.Errorf("decade hash %s != golden %s\n"+
			"if this change is intended, update goldenDecadeHash", got, goldenDecadeHash)
	}
}
