package main

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/reactive"
	"github.com/synscan/synscan/internal/telescope"
	"github.com/synscan/synscan/internal/workload"
)

// The query store is a decade of detector output: every measured year of
// internal/workload's scanning ecosystem, observed behind a reactive
// telescope and pushed through core.Detector, in the order the detector
// emitted it — what ten years of ingest would have appended to the archive.
const (
	// storeTelescope is smaller than the ingest capture's telescope, because
	// here the packets are only the way to the campaigns: a quarter of the
	// monitored addresses gives the same campaigns from a quarter of the
	// packets.
	storeTelescope = 1024
	// storeSegments is how many segments the writer seals before compaction.
	storeSegments = 10
	// narrowPorts is the most ports a campaign may probe to count as narrow,
	// and selectRows the row limit of the selective queries that return
	// campaigns: a row lists every port of its campaign, and one sweep of ten
	// thousand ports would make a result twenty times the size of another.
	narrowPorts = 16
	selectRows  = 5
	// campaignFile caches the generated decade in the run's scratch directory
	// for the set-up repetitions after the first.
	campaignFile = "campaigns.gob"
)

// campaigns is the decade the query store is built from, in emit order.
type campaigns struct {
	scans   []*core.Scan
	origins []enrich.Origin
	ports   []uint16   // the eight ports most campaigns probe, most scanned first
	busy    [][]uint32 // per year, the eight /16 networks with the most narrow campaigns
}

// genCampaigns replays the ten scenario years at the given scenario scale
// with repo code and keeps what the detector emits. As for the ingest
// captures, the seed picks the vantage point and the responder's secret while
// the ecosystem observed stays that of ecosystemSeed: a new ecosystem per seed
// changes how many campaigns sweep thousands of ports, and with it what a
// per-port aggregate costs, by far more than any bound.
func genCampaigns(seed uint64, scale float64) (*campaigns, error) {
	c := &campaigns{}
	reg := inetmodel.BuildRegistry(ecosystemSeed)
	enr := enrich.New(reg)
	perPort := map[uint16]int{}
	for _, year := range workload.Years() {
		perNet := map[uint32]int{}
		s, err := workload.NewScenario(workload.Config{
			Year: year, Seed: ecosystemSeed, TelescopeSeed: seed, Scale: scale,
			TelescopeSize: storeTelescope, Registry: reg,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario %d seed %d: %w", year, seed, err)
		}
		det := core.NewDetector(s.DetectorConfig, func(sc *core.Scan) {
			c.scans = append(c.scans, sc)
			c.origins = append(c.origins, enr.Origin(sc.Src))
			if len(sc.Ports) <= narrowPorts {
				perNet[sc.Src&^0xffff]++
			}
			for _, p := range sc.Ports {
				perPort[p]++
			}
		})
		rt := reactive.New(s.Telescope, reactive.DefaultPolicy(seed))
		s.RunReactive(rt, func(p *packet.Probe, d reactive.Disposition) {
			if d.Reason == telescope.Accepted {
				det.Ingest(p)
			}
		})
		det.FlushAll()
		nets := busiest(perNet, selectiveQueries/4)
		if len(nets) < selectiveQueries/4 {
			return nil, fmt.Errorf("year %d: narrow campaigns from %d networks, too few to draw queries from", year, len(nets))
		}
		c.busy = append(c.busy, nets)
	}
	c.ports = busiest(perPort, selectiveQueries/4)
	return c, nil
}

// busiest returns the n keys with the highest counts, highest first, ties by
// key.
func busiest[K uint16 | uint32](counts map[K]int, n int) []K {
	keys := make([]K, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if counts[keys[a]] != counts[keys[b]] {
			return counts[keys[a]] > counts[keys[b]]
		}
		return keys[a] < keys[b]
	})
	return keys[:min(n, len(keys))]
}

// save writes the campaigns to path and load reads them back. The harness
// holds them only while a build or the reference run needs them, so that
// they are not resident, and counted as the program's memory, during the
// slices.
func (c *campaigns) save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := gob.NewEncoder(w)
	if err := enc.Encode(c.scans); err == nil {
		err = enc.Encode(c.origins)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (c *campaigns) load(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := gob.NewDecoder(bufio.NewReader(f))
	if err := dec.Decode(&c.scans); err != nil {
		return err
	}
	return dec.Decode(&c.origins)
}

// store is a built query store and what building it cost, stage by stage.
type store struct {
	cat  *archive.Catalog
	view *archive.CatalogView

	segmentsBuilt int
	segments      int
	blocks        int
	bytes         int64
}

func (s *store) close() {
	if s == nil {
		return
	}
	s.view.Release()
	s.cat.Close()
}

// buildStore is the write path, the set-up of both query workloads: append
// every campaign to a segment store that seals storeSegments segments,
// compact until the compactor finds nothing more to merge, open the
// catalog, take the first view. The harness only times the stages.
func buildStore(dir string, c *campaigns) (*store, map[string]float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	stages := map[string]float64{}
	t0 := time.Now()
	sw, err := archive.OpenSegmentDir(dir, archive.SegmentConfig{
		TelescopeSize:   storeTelescope,
		Origins:         true,
		MaxSegmentScans: uint64(len(c.scans)/storeSegments + 1),
	})
	if err != nil {
		return nil, nil, err
	}
	defer sw.Close()
	for i, sc := range c.scans {
		if err := sw.AddWithOrigin(sc, c.origins[i]); err != nil {
			return nil, nil, err
		}
	}
	if err := sw.Seal(); err != nil {
		return nil, nil, err
	}
	stages["archive.build_scans_per_s"] = float64(len(c.scans)) / time.Since(t0).Seconds()
	st := &store{segmentsBuilt: len(sw.SealedSegments())}

	t0 = time.Now()
	comp := archive.NewCompactor(sw, archive.CompactorConfig{})
	var rewritten int64
	for {
		before := sw.SealedSegments()
		merged, err := comp.CompactOnce()
		if err != nil {
			return nil, nil, err
		}
		if merged == 0 {
			break
		}
		// The merge's output is the one segment that was not there before.
		old := map[string]bool{}
		for _, m := range before {
			old[m.Name] = true
		}
		for _, m := range sw.SealedSegments() {
			if !old[m.Name] {
				rewritten += m.Bytes
			}
		}
	}
	stages["archive.compact_s"] = time.Since(t0).Seconds()
	stages["archive.compact_bytes_rewritten"] = float64(rewritten)
	if err := sw.Close(); err != nil {
		return nil, nil, err
	}

	t0 = time.Now()
	st.cat, err = archive.OpenCatalog(dir, archive.CatalogConfig{})
	if err != nil {
		return nil, nil, err
	}
	st.view = st.cat.View()
	stages["archive.catalog_open_ms"] = time.Since(t0).Seconds() * 1e3

	st.segments = st.view.Len()
	for i := 0; i < st.view.Len(); i++ {
		st.blocks += st.view.Reader(i).NumBlocks()
		st.bytes += st.view.Meta(i).Bytes
	}
	if got := st.view.NumScans(); got != uint64(len(c.scans)) {
		st.close()
		return nil, nil, fmt.Errorf("store holds %d campaigns, %d were written", got, len(c.scans))
	}
	return st, stages, nil
}
