package archive_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/query"
)

// targetedPredicate is a test predicate whose filter reads the strips in
// filter and keeps a record when the parts of it those strips carry are one
// of targets'. Match computes that from what it is shown, so a decode that
// showed it a wrong part answers differently from the reference below.
type targetedPredicate struct {
	filter, fields archive.Fields
	targets        map[string]bool
}

func (p targetedPredicate) MatchBlock(*archive.ZoneMap) bool { return true }
func (p targetedPredicate) Fields() archive.Fields           { return p.fields }
func (p targetedPredicate) MatchFields() archive.Fields      { return p.filter }
func (p targetedPredicate) Match(sc *core.Scan, o *enrich.Origin) bool {
	return p.targets[filterKey(sc, o, p.filter)]
}

// filterKey renders the parts of a record filter's strips carry.
func filterKey(sc *core.Scan, o *enrich.Origin, filter archive.Fields) string {
	var origin enrich.Origin
	if o != nil {
		origin = *o
	}
	p, po := archive.Project(sc, origin, filter)
	b := binary.AppendVarint(nil, p.Start)
	for _, v := range []uint64{uint64(p.End), uint64(p.Src), p.Packets, uint64(p.DistinctDsts), uint64(p.Tool),
		flag(p.Qualified), math.Float64bits(p.RatePPS), math.Float64bits(p.Coverage), flag(p.TwoPhase),
		uint64(p.LinkedDsts), p.ScoutPackets, p.HandshakePackets, p.PayloadBytes, uint64(p.ISN),
		uint64(len(p.Ports)), uint64(len(p.Payload))} {
		b = binary.AppendUvarint(b, v)
	}
	for _, port := range p.Ports {
		b = binary.AppendUvarint(b, uint64(port))
	}
	b = append(b, p.Payload...)
	if po != nil {
		b = append(b, po.Country...)
		b = append(b, 0)
		b = append(b, po.OrgName...)
		for _, v := range []uint64{uint64(po.ASN), uint64(po.Type), uint64(uint16(po.OrgID))} {
			b = binary.AppendUvarint(b, v)
		}
	}
	return string(b)
}

func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestLateMaterialization: a scan decodes the strips its filter reads for
// every record, runs the filter over them, and decodes every other strip for
// the records the filter kept. Whatever the filter reads — the strips of each
// of query.Fields()'s filter leaves, and the selective workload's
// conjunctions — and whatever the consumer reads besides (all the strips the
// filter does not read, some of both, everything), the rows are those of a
// full decode filtered and projected in Go. Blocks take turns
// at having every record, no record, one record and every third record
// targeted. Run with poisonScratch on as well, under which the decode's
// blanks, scribbles and checks of the lent row run too.
func TestLateMaterialization(t *testing.T) {
	// Blocks of a few dozen records, and blocks of a couple of thousand,
	// which the filter's strips decode in several runs.
	t.Run("small blocks", func(t *testing.T) { lateMaterialization(t, 1200, 2<<10, 8, 1, []bool{false, true}) })
	t.Run("blocks of several runs", func(t *testing.T) { lateMaterialization(t, 4400, 64<<10, 4, 2, []bool{false}) })
}

// lateMaterialization runs the test over an archive of records in blocks of
// blockBytes, at least minBlocks of them and the largest holding at least
// runs filter runs' worth of records.
func lateMaterialization(t *testing.T, records, blockBytes, minBlocks, runs int, poisoning []bool) {
	scans, origins := archive.TestScans(records, 91)
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf, archive.WriterConfig{TelescopeSize: 4096, Origins: true, BlockBytes: blockBytes})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range scans {
		if err := w.AddWithOrigin(sc, origins[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := archive.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	blocks := rd.Blocks()
	largest := 0
	for _, z := range blocks {
		largest = max(largest, int(z.Scans))
	}
	if len(blocks) < minBlocks || largest <= (runs-1)*archive.FilterRun {
		t.Fatalf("%d blocks of at most %d records, want %d blocks and one of over %d filter runs",
			len(blocks), largest, minBlocks, runs-1)
	}

	// The filter shapes: what a filter leaf over each field reads, and the
	// selective workload's conjunctions.
	filters := map[archive.Fields]bool{}
	for _, f := range query.Fields() {
		for _, operand := range []string{`"eq":true`, `"prefix":"10.0.0.0/8"`, `"min_ns":1`, `"in":[1]`, `"in":["x"]`, `"min":1`} {
			q, err := query.Parse([]byte(fmt.Sprintf(`{"where":{"field":%q,%s},"aggs":[{"op":"count"}]}`, f, operand)))
			if err == nil {
				filters[q.Predicate().MatchFields()] = true
				break
			}
		}
	}
	for _, where := range []string{
		`{"and":[{"field":"year","in":[2019]},{"field":"port","in":[80]}]}`,
		`{"and":[{"field":"src","prefix":"10.0.0.0/16"},{"field":"year","in":[2019]},{"field":"nports","max":3}]}`,
		`{"and":[{"field":"tool","eq":"Masscan"},{"field":"year","in":[2019]},{"field":"two_phase","eq":true}]}`,
		`{"or":[{"field":"country","in":["C1"]},{"field":"packets","min":500}]}`,
	} {
		q, err := query.Parse([]byte(`{"where":` + where + `,"aggs":[{"op":"count"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		filters[q.Predicate().MatchFields()] = true
	}
	if len(filters) < 10 {
		t.Fatalf("only %d filter shapes", len(filters))
	}

	// Which records each block targets, by record number.
	targeted := func(i, block, first, n int) bool {
		switch block % 4 {
		case 0:
			return true
		case 1:
			return false
		case 2:
			return i == first+n/2
		}
		return (i-first)%3 == 0
	}

	// Per filter shape, the records whose filter parts some targeted
	// record's are: what the filter keeps, in Go.
	targets, kept := map[archive.Fields]map[string]bool{}, map[archive.Fields][]int{}
	selective := 0 // filters that keep some records and not all
	for filter := range filters {
		targets[filter] = map[string]bool{}
		first := 0
		for b, z := range blocks {
			for i := first; i < first+int(z.Scans); i++ {
				if targeted(i, b, first, int(z.Scans)) {
					targets[filter][filterKey(scans[i], &origins[i], filter)] = true
				}
			}
			first += int(z.Scans)
		}
		for i, sc := range scans {
			if targets[filter][filterKey(sc, &origins[i], filter)] {
				kept[filter] = append(kept[filter], i)
			}
		}
		if len(kept[filter]) < len(scans) {
			selective++
		}
	}
	// A filter over a field of a few values (tool, country) meets each value
	// in a targeted record somewhere and keeps every record.
	if 2*selective < len(filters) {
		t.Fatalf("%d of %d filter shapes keep some records and not all", selective, len(filters))
	}

	for _, poisoned := range poisoning {
		archive.PoisonScratch(poisoned)
		for filter := range filters {
			// The consumer reads the strips the filter does not, some of
			// both, or everything.
			outside := archive.AllFields &^ filter
			overlap := filter&-filter | archive.Fields(1)<<bits.TrailingZeros16(uint16(outside))
			for _, consumer := range []archive.Fields{outside, overlap, archive.AllFields} {
				p := targetedPredicate{filter: filter, fields: filter | consumer, targets: targets[filter]}
				var want []core.Scan
				var wantOrigins []*enrich.Origin
				for _, i := range kept[filter] {
					s, o := archive.Project(scans[i], origins[i], p.fields)
					want, wantOrigins = append(want, s), append(wantOrigins, o)
				}
				var got []core.Scan
				var gotOrigins []*enrich.Origin
				err := rd.Query(context.Background(), p, func(sc *core.Scan, o *enrich.Origin) {
					var origin *enrich.Origin
					if o != nil {
						cp := *o
						origin = &cp
					}
					s := *sc.Clone()
					if poisoned {
						// The parts outside the projection are sentinels
						// rather than zero: the reference has zeros.
						var po enrich.Origin
						if origin != nil {
							po = *origin
						}
						s, origin = archive.Project(&s, po, p.fields)
					}
					got, gotOrigins = append(got, s), append(gotOrigins, origin)
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotOrigins, wantOrigins) {
					t.Fatalf("poisoned=%v filter {%v}, projection {%v}: %d rows, the full decode filtered in Go %d, or their parts differ",
						poisoned, filter, p.fields, len(got), len(want))
				}
			}
		}
	}
	archive.PoisonScratch(false)
}
