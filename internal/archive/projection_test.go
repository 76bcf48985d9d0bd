package archive_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/query"
)

// fullSource reads an archive with the predicate's projection taken away.
type fullSource struct{ r *archive.Reader }

type fullDecode struct{ archive.Predicate }

func (fullDecode) Fields() archive.Fields { return archive.AllFields }

func (s fullSource) Query(ctx context.Context, p archive.Predicate, emit func(*core.Scan, *enrich.Origin)) error {
	return s.r.Query(ctx, fullDecode{p}, emit)
}

// TestProjectionIsChecked walks the query engine's field table and puts every
// row in every role it accepts — filter leaf, group_by, operand of each
// aggregate — over an archive read with poisonScratch set, under which every
// field outside the predicate's projection holds a sentinel instead of zero.
// A row whose `reads` misses a strip its accessors touch then answers from
// the sentinel, and its result differs from the full decode's and from the
// in-memory source's; all three must agree to the byte. The fields run as
// parallel subtests, in a group that returns before poisoning ends.
func TestProjectionIsChecked(t *testing.T) {
	archive.PoisonScratch(true)
	defer archive.PoisonScratch(false)

	scans, origins := archive.TestScans(1500, 77)
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf, archive.WriterConfig{TelescopeSize: 4096, Origins: true, BlockBytes: 8 << 10})
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

	// check runs q three ways and returns how many scans it matched.
	check := func(t *testing.T, role string, q *query.Query) uint64 {
		t.Helper()
		var first []byte
		var matched uint64
		for i, src := range []query.Source{
			query.ReaderSource{R: rd}, fullSource{rd}, query.SliceSource{Scans: scans, Origins: origins},
		} {
			res, err := query.Run(context.Background(), q, src)
			if err != nil {
				t.Fatalf("%s: %v", role, err)
			}
			out, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s: %v", role, err)
			}
			if i == 0 {
				first, matched = out, res.Matched
			} else if !bytes.Equal(out, first) {
				t.Errorf("%s (projects {%v}): the projected read and source %d disagree:\n%s\n%s",
					role, q.Predicate().Fields(), i, first, out)
			}
		}
		return matched
	}

	// Operands a filter leaf over some field accepts, drawn from one record so
	// that the leaf that fits the field also matches something.
	sc, o := scans[7], origins[7]
	operands := []string{
		`"eq":true`, `"prefix":"` + packet.FormatIPv4(sc.Src&0xc0000000) + `/2"`,
		fmt.Sprintf(`"min_ns":%d`, sc.Start),
		fmt.Sprintf(`"in":[%d]`, archive.YearOf(sc.Start)), fmt.Sprintf(`"in":[%d]`, sc.Ports[0]),
		fmt.Sprintf(`"in":[%d]`, o.ASN), fmt.Sprintf(`"in":[%q]`, o.Country), fmt.Sprintf(`"in":[%q]`, o.OrgName),
		`"min":0.5`, `"min":3`, `"min":600`, `"min":20000`,
	}
	count := []query.Agg{{Op: query.OpCount}}
	t.Run("fields", func(t *testing.T) {
		for _, f := range query.Fields() {
			t.Run(f.String(), func(t *testing.T) {
				t.Parallel()
				leaves := operands
				for _, name := range f.ValueNames() {
					leaves = append(leaves[:len(leaves):len(leaves)], fmt.Sprintf(`"in":[%q]`, name))
				}
				selective := false
				for _, operand := range leaves {
					text := fmt.Sprintf(`{"where":{"field":%q,%s},"aggs":[{"op":"count"}]}`, f, operand)
					q, err := query.Parse([]byte(text))
					if err != nil {
						continue // not this field's kind of leaf
					}
					if n := check(t, text, q); n > 0 && n < uint64(len(scans)) {
						selective = true
					}
				}
				if !selective {
					t.Errorf("%s: no filter leaf over it matched some scans and not all", f)
				}
				for _, q := range []*query.Query{
					{GroupBy: []query.Field{f}, Aggs: count},
					{Aggs: []query.Agg{{Op: query.OpSum, Field: f}}},
					{Aggs: []query.Agg{{Op: query.OpQuantile, Field: f, Qs: []float64{0.1, 0.5, 1}}}},
					{Aggs: []query.Agg{{Op: query.OpCountDistinct, Field: f}}},
					{Aggs: []query.Agg{{Op: query.OpApproxDistinct, Field: f}}},
					{Aggs: []query.Agg{{Op: query.OpTopK, Field: f, K: 5}}},
				} {
					if q.Validate() != nil {
						continue // not a role the row accepts
					}
					check(t, q.Key(), q)
				}
			})
		}
	})
}
