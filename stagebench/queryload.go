package main

import (
	"bytes"
	"compress/flate"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/inflate"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/query"
	"github.com/synscan/synscan/internal/workload"
)

// fullScanQueries are the four full-decade aggregates of query_fullscan:
// none carries a filter, so every block of the store is read.
var fullScanQueries = []string{
	`{"group_by":["port"],"aggs":[{"op":"count"}],"limit":10}`,
	`{"aggs":[{"op":"quantile","field":"rate_pps","qs":[0.5,0.9,0.99]}]}`,
	`{"group_by":["year"],"aggs":[{"op":"count_distinct","field":"src"}],"order_by":"key"}`,
	`{"group_by":["tool","year"],"aggs":[{"op":"sum","field":"packets"}],"order_by":"key"}`,
}

// selectiveQueries is the size of the selective query set; one round of it,
// like one round of the four full scans, takes a few tenths of a second.
const selectiveQueries = 32

// selectiveSet derives the 32 selective queries from the seed: eight each of
// four shapes whose filters the zone maps can decide for most blocks. The
// years differ in size by a factor of four, so which year a query visits is
// fixed — the 32 visits go round the decade — and the seed shuffles which
// port, source network and week meets which year: the work in a round then
// barely moves with the seed.
func selectiveSet(seed uint64, c *campaigns) []string {
	r := rand.New(rand.NewSource(int64(mix(seed ^ 0x73656c))))
	const week = 7 * 24 * int64(time.Hour)
	years := workload.Years()
	n := selectiveQueries / 4
	ports, nets := r.Perm(n), r.Perm(n)
	var qs []string
	for i := 0; i < n; i++ {
		yi := func(shape int) int { return (shape*n + i) % len(years) }
		// Scans of one of the eight most scanned ports in one year, counted.
		qs = append(qs, fmt.Sprintf(
			`{"where":{"and":[{"field":"year","in":[%d]},{"field":"port","in":[%d]}]},"aggs":[{"op":"count"}]}`,
			years[yi(0)], c.ports[ports[i]]))
		// The first narrow campaigns of a year from one of the eight /16
		// networks that sent the most of them, as rows.
		qs = append(qs, fmt.Sprintf(
			`{"where":{"and":[{"field":"src","prefix":"%s/16"},{"field":"year","in":[%d]},{"field":"nports","max":%d}]},"limit":%d}`,
			packet.FormatIPv4(c.busy[yi(1)][nets[i]]), years[yi(1)], narrowPorts, selectRows))
		// One seed-chosen week of a year's capture window, by tool.
		year := years[yi(2)]
		prof, _ := workload.ProfileFor(year) // every year of Years() has a profile
		from := workload.WindowStart(year) + int64(r.Intn(prof.Days/7))*week
		qs = append(qs, fmt.Sprintf(
			`{"where":{"field":"time","min_ns":%d,"max_ns":%d},"group_by":["tool"],"aggs":[{"op":"count"},{"op":"sum","field":"packets"}]}`,
			from, from+week))
		// Two-phase masscan campaigns of one year, by port.
		qs = append(qs, fmt.Sprintf(
			`{"where":{"and":[{"field":"tool","eq":"Masscan"},{"field":"year","in":[%d]},{"field":"two_phase","eq":true}]},"group_by":["port"],"aggs":[{"op":"count"}],"limit":20}`,
			years[yi(3)]))
	}
	return qs
}

// queryLoad is the query_fullscan and query_selective workloads: JSON query
// text in, result JSON out, over one compacted decade store.
type queryLoad struct {
	selective bool
	e         *env

	camp    *campaigns
	ncamp   int
	st      *store
	queries []string
	ref     [][sha256.Size]byte // digest of each query's reference result
	out     [][]byte            // results of the slice in progress
}

func (w *queryLoad) items() int { return len(w.queries) }

// newQueryLoad derives the workload's inputs from the seed: the decade of
// campaigns and the query texts. This is the benchmark's work, done before
// any set-up is timed.
func newQueryLoad(e *env, selective bool) (*queryLoad, error) {
	camp, err := genCampaigns(e.seed, e.sizes.storeScale)
	if err != nil {
		return nil, err
	}
	if err := camp.save(filepath.Join(e.workdir, campaignFile)); err != nil {
		return nil, err
	}
	w := &queryLoad{e: e, selective: selective, camp: camp, ncamp: len(camp.scans)}
	w.queries = fullScanQueries
	if selective {
		w.queries = selectiveSet(e.seed, camp)
	}
	w.out = make([][]byte, len(w.queries))
	return w, nil
}

// setup is the write path: build, compact and open the store with repo code.
// The campaigns are only held while something needs them — the first build
// and the reference run — so that they do not count as the program's memory
// during the slices; a later repetition reads them back first, untimed.
func (w *queryLoad) setup() (float64, map[string]float64, error) {
	w.st.close()
	w.st = nil
	if w.camp.scans == nil {
		if err := w.camp.load(filepath.Join(w.e.workdir, campaignFile)); err != nil {
			return 0, nil, err
		}
	}
	t0 := time.Now()
	st, stages, err := buildStore(filepath.Join(w.e.workdir, "store"), w.camp)
	seconds := time.Since(t0).Seconds()
	w.st = st
	if w.ref != nil {
		w.camp.scans, w.camp.origins = nil, nil
	}
	return seconds, stages, err
}

// prepare runs every query over the materialized campaigns, the engine's
// own reference path, and keeps a digest of each result.
func (w *queryLoad) prepare() error {
	src := query.SliceSource{Scans: w.camp.scans, Origins: w.camp.origins}
	w.ref = make([][sha256.Size]byte, len(w.queries))
	for i, text := range w.queries {
		q, err := query.Parse([]byte(text))
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		res, err := query.Run(context.Background(), q, src)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			return err
		}
		w.ref[i] = sha256.Sum256(out)
	}
	w.camp.scans, w.camp.origins = nil, nil
	return nil
}

// execute answers one query the way a server does, layer by layer: parse
// the text, validate and plan it, scan each segment of the view into a
// partial executor, merge and finish, encode the result.
func execute(tr *tracer, view *archive.CatalogView, text string) ([]byte, error) {
	ctx := context.Background()
	id := tr.start("query.parse", -1)
	q, err := query.Parse([]byte(text))
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.start("query.plan", -1)
	err = q.Validate()
	pred := q.Predicate()
	tr.end(id)
	if err != nil {
		return nil, err
	}

	var total *query.Executor
	for i := 0; i < view.Len(); i++ {
		part := query.NewExecutor(q)
		id = tr.start("archive.query", -1)
		err = query.ReaderSource{R: view.Reader(i)}.Query(ctx, pred, part.Observe)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if total == nil {
			total = part
			continue
		}
		id = tr.start("query.finish", -1)
		total.Merge(part)
		tr.end(id)
	}
	id = tr.start("query.finish", -1)
	res, err := total.Finish()
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.start("query.encode", -1)
	out, err := json.Marshal(res)
	tr.end(id)
	return out, err
}

func (w *queryLoad) slice(tr *tracer) (sliceResult, error) {
	var res sliceResult
	res.ok = true
	clock := startClock()
	for i, text := range w.queries {
		out, err := execute(tr, w.st.view, text)
		if err != nil {
			return res, fmt.Errorf("query %d: %w", i, err)
		}
		w.out[i] = out
	}
	clock.stop(&res)

	for i, out := range w.out {
		res.outBytes += int64(len(out))
		if sha256.Sum256(out) != w.ref[i] {
			res.ok = false
		}
	}
	return res, nil
}

// shadow takes the scan apart with single calls into the public functions
// of the layers under Reader.Query, on one worker so that the parts add:
// zone-map pruning, block read, inflate, record decode and aggregation.
func (w *queryLoad) shadow(tr *tracer) (map[string]float64, error) {
	ctx := context.Background()
	m := map[string]float64{}
	timed := func(name string, f func() error) error {
		start := tr.now()
		err := f()
		end := tr.now()
		tr.shadow(name, start, end)
		m[name+"_ns"] += float64(end - start)
		return err
	}
	// A catalog of its own whose readers decode on one worker.
	cat, err := archive.OpenCatalog(w.st.cat.Dir(), archive.CatalogConfig{Workers: 1})
	if err != nil {
		return nil, err
	}
	defer cat.Close()
	view := cat.View()
	defer view.Release()

	var inf inflate.Decoder
	var raw, comp bytes.Buffer
	var scratch []byte
	for _, text := range w.queries {
		q, err := query.Parse([]byte(text))
		if err != nil {
			return nil, err
		}
		pred := q.Predicate()
		for s := 0; s < view.Len(); s++ {
			rd := view.Reader(s)
			zones := rd.Blocks()
			var live []int
			timed("archive.prune", func() error {
				for i := range zones {
					if pred.MatchBlock(&zones[i]) {
						live = append(live, i)
					}
				}
				return nil
			})
			m["blocks"] += float64(len(zones))
			m["blocks_read"] += float64(len(live))
			for _, i := range live {
				m["rows_examined"] += float64(zones[i].Scans)
				err := timed("archive.block_read", func() error {
					return rd.RawBlock(i, func(b []byte) error {
						raw.Reset()
						raw.Write(b)
						return nil
					})
				})
				if err != nil {
					return nil, err
				}
				// The reader hands out inflated bytes only, so the inflater
				// is costed on the same bytes deflated again.
				comp.Reset()
				fw, err := flate.NewWriter(&comp, flate.DefaultCompression)
				if err != nil {
					return nil, err
				}
				fw.Write(raw.Bytes())
				if err := fw.Close(); err != nil {
					return nil, err
				}
				err = timed("inflate.decode", func() error {
					scratch, err = inf.AppendDecode(scratch[:0], comp.Bytes(), raw.Len()+1)
					return err
				})
				if err != nil {
					return nil, err
				}
				m["inflate_bytes"] += float64(raw.Len())
			}

			var matched []*core.Scan
			var origins []*enrich.Origin
			err = timed("archive.scan_noop", func() error {
				return query.ReaderSource{R: rd}.Query(ctx, pred, func(sc *core.Scan, o *enrich.Origin) {
					matched = append(matched, sc)
					origins = append(origins, o)
				})
			})
			if err != nil {
				return nil, err
			}
			m["rows_matched"] += float64(len(matched))
			ex := query.NewExecutor(q)
			timed("query.aggregate", func() error {
				for i, sc := range matched {
					ex.Observe(sc, origins[i])
				}
				return nil
			})
		}
	}
	return m, nil
}

func (w *queryLoad) inputs() map[string]float64 {
	return map[string]float64{
		"campaigns":      float64(w.ncamp),
		"segments_built": float64(w.st.segmentsBuilt),
		"segments":       float64(w.st.segments),
		"blocks":         float64(w.st.blocks),
		"store_bytes":    float64(w.st.bytes),
		"queries":        float64(len(w.queries)),
	}
}

// layers turns traced slices and the shadow pass into the query per-layer
// metrics.
func (w *queryLoad) layers(best ledger, last sliceResult, sh map[string]float64) map[string]float64 {
	nq := float64(len(w.queries)) // a slice and the shadow pass both run each query once
	perQuery := func(name string) float64 { return float64(best.self[name]) / 1e3 / nq }
	examined := sh["rows_examined"]
	decode := sh["archive.scan_noop_ns"] - sh["archive.block_read_ns"] - sh["archive.prune_ns"]
	return map[string]float64{
		"query.parse_us_per_query":              perQuery("query.parse"),
		"query.plan_us_per_query":               perQuery("query.plan"),
		"archive.query_us_per_query":            perQuery("archive.query"),
		"query.finish_us_per_query":             perQuery("query.finish"),
		"query.encode_us_per_query":             perQuery("query.encode"),
		"query.result_bytes":                    float64(last.outBytes) / nq,
		"archive.prune_us_per_query":            sh["archive.prune_ns"] / 1e3 / nq,
		"archive.blocks_read_share":             sh["blocks_read"] / sh["blocks"],
		"archive.rows_examined_per_row_matched": examined / max(sh["rows_matched"], 1),
		"archive.block_read_us_per_block":       sh["archive.block_read_ns"] / 1e3 / max(sh["blocks_read"], 1),
		"inflate.decode_ns_per_byte":            sh["inflate.decode_ns"] / max(sh["inflate_bytes"], 1),
		"archive.record_decode_ns_per_scan":     decode / max(examined, 1),
		"query.aggregate_ns_per_scan":           sh["query.aggregate_ns"] / max(sh["rows_matched"], 1),
	}
}

func (w *queryLoad) close() { w.st.close() }
