package query

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/rng"
)

// leafFrom builds a valid filter leaf over f — the leaf type f's kind takes —
// around the value f has in one scan of the data under test, so the leaf
// selects something. Tests that must cover every field draw their leaves here
// and so pick up a new row without an edit.
func leafFrom(f Field, sc *core.Scan, o *enrich.Origin, r *rng.Rand) Expr {
	d := f.def()
	const day = int64(24 * time.Hour)
	switch d.kind {
	case kindEnum, kindInt:
		bound := d.max
		if d.kind == kindEnum {
			bound = d.enum.n - 1
		}
		e := &inExpr{leaf: leaf{f}, ints: []uint64{uint64(r.Uint32()) % (bound + 1)}}
		if f == FieldPort {
			e.ints = append(e.ints, uint64(sc.Ports[int(r.Uint32())%len(sc.Ports)]))
		} else {
			e.ints = append(e.ints, d.disc(sc, o))
		}
		return e
	case kindString:
		return &inExpr{leaf: leaf{f}, strs: []string{d.str(o), "no such value"}}
	case kindBool:
		return &boolExpr{leaf{f}, r.Uint32()%2 == 0}
	case kindNum:
		v := d.numValue(sc, o, 1)
		lo, hi := v/2, v*2
		switch r.Uint32() % 3 {
		case 0:
			return NumRange(f, &lo, nil)
		case 1:
			return NumRange(f, nil, &hi)
		}
		return NumRange(f, &lo, &hi)
	case kindPrefix:
		bits := uint8(4 + r.Uint32()%21)
		base := uint32(d.disc(sc, o)) &^ (1<<(32-bits) - 1)
		return &prefixExpr{leaf{f}, inetmodel.Prefix{Base: base, Bits: bits}}
	case kindTime:
		lo := int64(d.disc(sc, o)) - r.Int63n(100*day)
		hi := lo + r.Int63n(300*day)
		switch r.Uint32() % 4 {
		case 0:
			return &timeExpr{leaf{f}, &lo, nil}
		case 1:
			return &timeExpr{leaf{f}, nil, &hi}
		}
		return &timeExpr{leaf{f}, &lo, &hi}
	}
	panic(fmt.Sprintf("field %s has kind %d, which leafFrom does not know", f, d.kind))
}

// wireOp is the filter operator each kind takes on the wire, with a value
// that operator accepts somewhere.
var wireOp = map[kind]string{
	kindEnum: "in", kindInt: "in", kindString: "in", kindBool: "eq",
	kindNum: "min", kindPrefix: "prefix", kindTime: "min_ns",
}

var wireOperand = map[string]string{
	"in": `[1]`, "eq": `true`, "min": `1`, "min_ns": `1`, "prefix": `"10.0.0.0/8"`,
}

// TestFieldTableOperators walks the whole field table. Every row resolves by
// its wire name and back, survives JSON, and is accepted by exactly the
// operators its
// row declares: a filter operator that is not its kind's, and any of group_by
// / sum / quantile / count_distinct / approx_distinct / top_k it lacks, is a
// ClientError — never a silent zero, never a panic. (Which capabilities each
// row should declare is pinned by the matrix in DESIGN.md, below.)
func TestFieldTableOperators(t *testing.T) {
	scans, origins := genScans(4, 3)
	r := rng.New(5)
	if len(Fields()) != len(fields)-1 {
		t.Fatalf("Fields() lists %d of %d rows", len(Fields()), len(fields)-1)
	}
	for _, f := range Fields() {
		d := f.def()
		if d.name == "" || d.kind == 0 {
			t.Fatalf("field %d has an empty row", f)
		}
		if got, ok := FieldByName(d.name); !ok || got != f || f.String() != d.name {
			t.Fatalf("%s: FieldByName = %v, %v; String = %q", d.name, got, ok, f.String())
		}
		raw, err := json.Marshal(f)
		var back Field
		if err != nil || json.Unmarshal(raw, &back) != nil || back != f {
			t.Fatalf("%s: JSON round trip gave %s → %v (%v)", f, raw, back, err)
		}

		// Filter operators, on the wire.
		for op, operand := range wireOperand {
			if op == wireOp[d.kind] {
				continue // the accepted one: TestMarshalRoundTrip parses it per row
			}
			text := fmt.Sprintf(`{"where":{"field":%q,%q:%s}}`, d.name, op, operand)
			if _, err := Parse([]byte(text)); !IsClientError(err) {
				t.Errorf("%s: Parse = %v, want a client error", text, err)
			}
		}

		// Every operator, as a built query. A range bound JSON has no number
		// for is refused on every field.
		one, nan, inf, negInf := 1.0, math.NaN(), math.Inf(1), math.Inf(-1)
		set := d.kind == kindEnum || d.kind == kindInt || d.kind == kindString
		setLeaf := Expr(&inExpr{leaf: leaf{f}, ints: []uint64{1}})
		if set {
			setLeaf = leafFrom(f, scans[0], &origins[0], r)
		}
		count := []Agg{{Op: OpCount}}
		for _, c := range []struct {
			op   string
			q    *Query
			want bool
		}{
			{"in", &Query{Where: setLeaf}, set},
			{"range", &Query{Where: NumRange(f, &one, nil)}, d.numeric()},
			{"range NaN", &Query{Where: NumRange(f, &nan, nil)}, false},
			{"range +Inf", &Query{Where: NumRange(f, nil, &inf)}, false},
			{"range -Inf", &Query{Where: NumRange(f, &negInf, &one)}, false},
			{"group_by", &Query{GroupBy: []Field{f}, Aggs: count}, d.caps&capGroup != 0},
			{"sum", &Query{Aggs: []Agg{{Op: OpSum, Field: f}}}, d.numeric()},
			{"quantile", &Query{Aggs: []Agg{{Op: OpQuantile, Field: f, Qs: []float64{0.5}}}}, d.numeric()},
			{"count_distinct", &Query{Aggs: []Agg{{Op: OpCountDistinct, Field: f}}}, d.caps&capDistinct != 0},
			{"approx_distinct", &Query{Aggs: []Agg{{Op: OpApproxDistinct, Field: f}}}, d.caps&capDistinct != 0},
			{"top_k", &Query{Aggs: []Agg{{Op: OpTopK, Field: f, K: 3}}}, d.caps&capTopK != 0},
		} {
			err := c.q.Validate()
			if c.want && err != nil {
				t.Errorf("%s %s: Validate = %v, want accepted", c.op, f, err)
			}
			if !c.want && !IsClientError(err) {
				t.Errorf("%s %s: Validate = %v, want a client error", c.op, f, err)
			}
			if c.want {
				// What validates must also run: over origin-less and
				// origin-carrying scans alike.
				for _, src := range []SliceSource{{Scans: scans}, {Scans: scans, Origins: origins}} {
					if _, err := Run(context.Background(), c.q, src); err != nil {
						t.Errorf("%s %s: Run = %v", c.op, f, err)
					}
				}
			}
		}

		// A row's accessors back its capabilities.
		if d.caps&(capGroup|capDistinct|capTopK) != 0 && d.disc == nil && d.str == nil && f != FieldPort {
			t.Errorf("%s is keyed but has no discrete accessor", f)
		}
		if (d.kind == kindEnum) != (d.enum != nil) ||
			(d.kind == kindNum && !d.numeric()) || (d.zone == nil) != (d.evidence == "") {
			t.Errorf("%s: row is inconsistent with its kind: %+v", f, d)
		}
	}
	if _, ok := FieldByName(""); ok {
		t.Error("the empty row resolves by name")
	}
}

// TestZoneMapSoundness is the pushdown contract, row by row: for every field
// whose row has a zone-map test, a leaf over it may reject a block only if no
// scan in the block matches. Blocks are tiny and the scans come in four
// orders, so each test does get to reject blocks — a row whose test never
// fires fails too.
func TestZoneMapSoundness(t *testing.T) {
	scans, origins := genScans(3000, 23)
	idx := make([]int, len(scans))
	orders := []struct {
		name string
		less func(a, b *core.Scan) bool
	}{
		{"time", func(a, b *core.Scan) bool { return a.Start < b.Start }},
		{"src", func(a, b *core.Scan) bool { return a.Src < b.Src }},
		{"port", func(a, b *core.Scan) bool { return a.Ports[0] < b.Ports[0] }},
		{"flags", func(a, b *core.Scan) bool {
			if a.TwoPhase != b.TwoPhase {
				return b.TwoPhase
			}
			if a.Qualified != b.Qualified {
				return b.Qualified
			}
			return a.Tool < b.Tool
		}},
	}
	pruned := map[Field]int{}
	r := rng.New(31)
	for _, order := range orders {
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(i, j int) bool { return order.less(scans[idx[i]], scans[idx[j]]) })
		ss, orig := make([]*core.Scan, len(idx)), make([]enrich.Origin, len(idx))
		for i, k := range idx {
			ss[i], orig[i] = scans[k], origins[k]
		}
		rd := openArc(t, writeArcBlocks(t, ss, orig, true, 256))
		at := 0
		type block struct {
			z      archive.ZoneMap
			lo, hi int
		}
		var blocks []block
		for _, z := range rd.Blocks() {
			blocks = append(blocks, block{z, at, at + int(z.Scans)})
			at += int(z.Scans)
		}
		if at != len(ss) {
			t.Fatalf("%s: blocks hold %d scans, wrote %d", order.name, at, len(ss))
		}
		for _, f := range Fields() {
			if f.def().zone == nil {
				continue
			}
			for trial := 0; trial < 40; trial++ {
				k := int(r.Uint32()) % len(ss)
				e := leafFrom(f, ss[k], &orig[k], r)
				for _, b := range blocks {
					if e.matchBlock(&b.z) {
						continue
					}
					pruned[f]++
					for i := b.lo; i < b.hi; i++ {
						if e.match(ss[i], &orig[i]) {
							wire, _ := marshalExpr(e)
							t.Fatalf("%s order: %s rejected a block whose scan %d matches (zone map %+v)",
								order.name, wire, i, b.z)
						}
					}
				}
			}
		}
	}
	for _, f := range Fields() {
		if f.def().zone != nil && pruned[f] == 0 {
			t.Errorf("%s has a zone-map test that never rejected a block", f)
		}
	}
}

const (
	matrixBegin = "<!-- field-matrix:begin (rendered from internal/query's field table; TestFieldMatrixDoc compares) -->"
	matrixEnd   = "<!-- field-matrix:end -->"
)

// fieldMatrix renders the field table as the Markdown DESIGN.md carries.
func fieldMatrix() string {
	yes := func(b bool) string {
		if b {
			return "yes"
		}
		return "–"
	}
	var b strings.Builder
	b.WriteString("| field | kind | filter | group_by | sum, quantile | distinct | top_k | zone-map evidence | strips read |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, f := range Fields() {
		d := f.def()
		var kind, filter string
		switch d.kind {
		case kindEnum:
			kind, filter = fmt.Sprintf("name (%s)", strings.Join(f.ValueNames(), ", ")), "`in`, `eq`"
		case kindInt:
			kind, filter = fmt.Sprintf("integer ≤ %d", d.max), "`in`, `eq`"
		case kindString:
			kind, filter = "string", "`in`, `eq`"
		case kindBool:
			kind, filter = "flag", "`eq`"
		case kindNum:
			kind, filter = "number", "`min`, `max`"
		case kindPrefix:
			kind, filter = "IPv4 address", "`prefix`"
		case kindTime:
			kind, filter = "timestamp (ns)", "`min_ns`, `max_ns`"
		}
		sum := "–"
		switch {
		case d.ival != nil && d.split:
			sum = "integer, split over port rows"
		case d.ival != nil:
			sum = "integer"
		case d.fval != nil:
			sum = "float"
		}
		reads, evidence := d.reads.String(), "–"
		if d.zone != nil {
			evidence = d.evidence
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s | %s | %s | %s |\n", d.name, kind, filter,
			yes(d.caps&capGroup != 0), sum, yes(d.caps&capDistinct != 0), yes(d.caps&capTopK != 0),
			evidence, reads)
	}
	return b.String()
}

// TestFieldMatrixDoc keeps DESIGN.md's field matrix equal to the table: it
// renders the matrix and fails with the block to paste when the document
// differs. The document is the reviewed statement of what each row should be;
// the table is what runs.
func TestFieldMatrixDoc(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	want := matrixBegin + "\n" + fieldMatrix() + matrixEnd
	_, rest, ok := strings.Cut(string(doc), matrixBegin)
	got, _, ok2 := strings.Cut(rest, matrixEnd)
	if !ok || !ok2 || matrixBegin+got+matrixEnd != want {
		t.Fatalf("DESIGN.md's field matrix differs from the field table; it should read:\n\n%s\n", want)
	}
}
