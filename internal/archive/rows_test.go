package archive

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/synscan/synscan/internal/alloctest"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/rng"
)

// every is a test predicate: it admits every block, keeps every nth record by
// source address, and projects the given fields.
type every struct {
	n      uint32
	fields Fields
}

func (p every) MatchBlock(*ZoneMap) bool                   { return true }
func (p every) Match(sc *core.Scan, _ *enrich.Origin) bool { return sc.Src%p.n == 0 }
func (p every) Fields() Fields                             { return p.fields }
func (p every) MatchFields() Fields                        { return p.fields & FieldSrc }

// TestLentRows pins the lending contract of Query: a row is the caller's only
// until emit returns. Under poisonScratch a pointer kept past emit — the scan,
// its ports, its origin — reads sentinels once the query moves on, while a
// clone taken inside emit stays what was archived after a second query has
// churned every row set and scratch again. Records of thousands of ports make
// a ports column regrow in the middle of a block, with kept rows before the
// regrowth and rejected ones after.
func TestLentRows(t *testing.T) {
	poisonScratch.Store(true)
	defer poisonScratch.Store(false)

	scans, origins := testScans(4000, 41)
	for i, sc := range scans {
		sc.Src = uint32(i) // every{3} then keeps records 0, 3, 6, …
	}
	wide := func(n int) []uint16 {
		ports := make([]uint16, n)
		for i := range ports {
			ports[i] = uint16(1 + 2*i)
		}
		return ports
	}
	scans[900].Ports = wide(9000)   // kept (900%3 == 0)
	scans[901].Ports = wide(13000)  // rejected: taken at the tail, overwritten
	scans[1800].Ports = wide(24000) // kept, a few blocks later
	data := writeArchive(t, scans, origins, WriterConfig{TelescopeSize: 4096, Origins: true, BlockBytes: 8 << 10})

	for _, workers := range []int{1, 3} {
		r := openArchive(t, data)
		r.SetWorkers(workers)
		if r.NumBlocks() < 8 {
			t.Fatalf("want many blocks, got %d", r.NumBlocks())
		}
		var lentScan *core.Scan
		var lentPorts []uint16
		var lentOrigin *enrich.Origin
		var clones []*core.Scan
		var originClones []enrich.Origin
		err := scan(t, r, context.Background(), every{n: 3, fields: AllFields}, func(sc *core.Scan, o *enrich.Origin) {
			if lentScan != nil && sc != lentScan {
				t.Fatalf("workers=%d: emit was lent a second row", workers)
			}
			lentScan, lentOrigin = sc, o
			if len(sc.Ports) > len(lentPorts) {
				lentPorts = sc.Ports
			}
			clones, originClones = append(clones, sc.Clone()), append(originClones, *o)
			if cap(sc.Ports) != len(sc.Ports) {
				t.Fatalf("workers=%d: a row's ports have spare capacity %d: an append would write into its neighbour",
					workers, cap(sc.Ports)-len(sc.Ports))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := (len(scans) + 2) / 3; len(clones) != want {
			t.Fatalf("workers=%d: emitted %d scans, want %d", workers, len(clones), want)
		}
		// What was kept of the lent row is spent.
		if lentScan.Src != 0x5bdbdbdb || lentScan.Ports[0] != 0xdbdb || lentOrigin.Country != "\xdb\xdb" {
			t.Fatalf("workers=%d: a row kept past emit reads %+v, %+v: not the sentinels", workers, lentScan, lentOrigin)
		}
		if len(lentPorts) != 24000 || lentPorts[0] != 0xdbdb || lentPorts[len(lentPorts)-1] != 0xdbdb {
			t.Fatalf("workers=%d: ports kept past emit were not scribbled", workers)
		}
		// Churn the free lists once more, through a second query.
		if err := scan(t, r, context.Background(), All, func(*core.Scan, *enrich.Origin) {}); err != nil {
			t.Fatal(err)
		}
		for i, sc := range clones {
			if !reflect.DeepEqual(sc, scans[3*i]) {
				t.Fatalf("workers=%d: clone %d differs from what was archived:\n got:  %+v\n want: %+v", workers, i, sc, scans[3*i])
			}
			if originClones[i] != origins[3*i] {
				t.Fatalf("workers=%d: origin %d copied as %+v, archived as %+v", workers, i, originClones[i], origins[3*i])
			}
		}
	}
}

// heldColumns is the set of strips whose columns rw holds memory for.
func heldColumns(rw *rows) Fields {
	var f Fields
	for i, held := range []bool{
		rw.start != nil, rw.dur != nil, rw.src != nil, rw.packets != nil, rw.dsts != nil,
		rw.ports != nil || rw.portEnd != nil, rw.tool != nil, rw.rate != nil, rw.coverage != nil,
		rw.phase != nil, rw.payload != nil || rw.payloadEnd != nil,
		rw.country != nil, rw.asn != nil, rw.org != nil,
	} {
		if held {
			f |= 1 << i
		}
	}
	return f
}

// TestRowsIdleBound states what the row sets keep between queries: after a
// full scan and then a one-strip aggregate over a store of many blocks, the
// free list holds at most 2×GOMAXPROCS+1 sets — a query's window at the
// default worker count — and each of them holds the aggregate's one column
// and no other: what the full scan decoded went to the collector as the
// aggregate reused the sets.
func TestRowsIdleBound(t *testing.T) {
	scans, origins := testScans(8000, 45)
	data := writeArchive(t, scans, origins, WriterConfig{TelescopeSize: 4096, Origins: true, BlockBytes: 4 << 10})
	r := openArchive(t, data)
	bound := 2*runtime.GOMAXPROCS(0) + 1
	if r.NumBlocks() < 4*bound {
		t.Fatalf("%d blocks: too few to cycle %d sets", r.NumBlocks(), bound)
	}
	for _, p := range []Predicate{All, every{n: 1, fields: FieldRate}} {
		if err := scan(t, r, context.Background(), p, func(*core.Scan, *enrich.Origin) {}); err != nil {
			t.Fatal(err)
		}
	}
	var idle []*rows
	for len(rowsFree) > 0 {
		idle = append(idle, <-rowsFree)
	}
	defer func() {
		for _, rw := range idle {
			rw.release()
		}
	}()
	if len(idle) == 0 || len(idle) > bound {
		t.Fatalf("%d idle row sets, want 1 to %d", len(idle), bound)
	}
	for i, rw := range idle {
		if rw.fields != FieldRate || heldColumns(rw) != FieldRate {
			t.Errorf("idle set %d was last reset for {%v} and holds columns {%v}, want {rate} and {rate}",
				i, rw.fields, heldColumns(rw))
		}
	}
}

// project is the reference projection: sc and o as a decode of the strips in
// fields alone leaves them, every other field zero.
func project(sc *core.Scan, o enrich.Origin, fields Fields) (core.Scan, *enrich.Origin) {
	var p core.Scan
	if fields&FieldStart != 0 {
		p.Start = sc.Start
	}
	if fields&FieldDuration != 0 {
		p.End = p.Start + sc.End - sc.Start
	}
	if fields&FieldSrc != 0 {
		p.Src = sc.Src
	}
	if fields&FieldPackets != 0 {
		p.Packets = sc.Packets
	}
	if fields&FieldDsts != 0 {
		p.DistinctDsts = sc.DistinctDsts
	}
	if fields&FieldPorts != 0 {
		p.Ports = sc.Ports
	}
	if fields&FieldTool != 0 {
		p.Tool, p.Qualified = sc.Tool, sc.Qualified
	}
	if fields&FieldRate != 0 {
		p.RatePPS = sc.RatePPS
	}
	if fields&FieldCoverage != 0 {
		p.Coverage = sc.Coverage
	}
	if fields&FieldPhase != 0 {
		p.TwoPhase, p.ISN, p.LinkedDsts = sc.TwoPhase, sc.ISN, sc.LinkedDsts
		p.HandshakePackets, p.PayloadBytes = sc.HandshakePackets, sc.PayloadBytes
		if fields&FieldPackets != 0 {
			p.ScoutPackets = sc.ScoutPackets
		}
	}
	if fields&FieldPayload != 0 {
		p.Payload = sc.Payload
	}
	if fields&FieldOrigin == 0 {
		return p, nil
	}
	var po enrich.Origin
	if fields&FieldCountry != 0 {
		po.Country = o.Country
	}
	if fields&FieldASN != 0 {
		po.ASN, po.Type = o.ASN, o.Type
	}
	if fields&FieldOrg != 0 {
		po.OrgID, po.OrgName = o.OrgID, o.OrgName
	}
	return p, &po
}

// TestProjectedDecode: a predicate that names some strips gets every record
// with exactly the fields those strips carry — the rest zero, ports and
// payload nil, the origin nil when no origin strip is named — and inflates
// exactly those strips' bytes; a full projection (what All and select-mode
// queries ask for) gets every field. The sets: none, each strip alone, all but
// each strip, everything, and a spread of random ones.
func TestProjectedDecode(t *testing.T) {
	scans, origins := testScans(3000, 43)
	data := writeArchive(t, scans, origins, WriterConfig{TelescopeSize: 4096, Origins: true, BlockBytes: 8 << 10})
	r := openArchive(t, data)
	reg := obs.NewRegistry()
	r.SetMetrics(reg)
	sets := []Fields{0, AllFields}
	for i := 0; i < numStrips; i++ {
		sets = append(sets, 1<<i, AllFields&^(1<<i))
	}
	rnd := rng.New(44)
	for i := 0; i < 24; i++ {
		sets = append(sets, Fields(rnd.Uint32())&AllFields)
	}
	var full uint64 // what AllFields inflates
	for _, z := range r.Blocks() {
		full += uint64(z.RawLen)
	}
	inflated := map[Fields]uint64{}
	for _, fields := range sets {
		before := reg.Snapshot().Counter("archive.bytes.decompressed")
		i := 0
		err := scan(t, r, context.Background(), every{n: 1, fields: fields}, func(sc *core.Scan, o *enrich.Origin) {
			want, wantOrigin := project(scans[i], origins[i], fields)
			if !reflect.DeepEqual(sc, &want) {
				t.Fatalf("fields {%v} scan %d:\n got:  %+v\n want: %+v", fields, i, sc, &want)
			}
			if !reflect.DeepEqual(o, wantOrigin) {
				t.Fatalf("fields {%v} scan %d: origin %+v, want %+v", fields, i, o, wantOrigin)
			}
			i++
		})
		if err != nil {
			t.Fatal(err)
		}
		if i != len(scans) {
			t.Fatalf("fields {%v}: %d scans, want %d", fields, i, len(scans))
		}
		inflated[fields] = reg.Snapshot().Counter("archive.bytes.decompressed") - before
	}
	// The bytes inflated are the named strips' and nothing else: none for the
	// empty set, everything for the full one, and additive in between.
	if inflated[0] != 0 || inflated[AllFields] != full {
		t.Fatalf("no strips inflate %d bytes, all strips %d; want 0 and %d", inflated[0], inflated[AllFields], full)
	}
	for _, fields := range sets {
		var want uint64
		for i := 0; i < numStrips; i++ {
			if fields&(1<<i) != 0 {
				want += inflated[1<<i]
			}
		}
		if inflated[fields] != want {
			t.Fatalf("fields {%v} inflate %d bytes, their strips one by one %d", fields, inflated[fields], want)
		}
	}
	if f := (All).Fields(); f != AllFields {
		t.Fatalf("All projects {%v}, want everything", f)
	}
}

// TestAllocBudgetBlockDecode is the enforced budget for decoding a block's
// records on top of the pooled read into a warm row set: nothing per block in
// steady state, whether a block holds a hundred records or eight hundred,
// where the per-record decode the row sets replace made five allocations per
// record and the slabs after it up to six per block. Reported under
// "archive-block-decode".
func TestAllocBudgetBlockDecode(t *testing.T) {
	scans, origins := testScans(16000, 47)
	for _, blockBytes := range []int{8 << 10, 64 << 10} {
		data := writeArchive(t, scans, origins, WriterConfig{TelescopeSize: 4096, Origins: true, BlockBytes: blockBytes})
		r := openArchive(t, data)
		blocks := r.NumBlocks()
		perBlock := len(scans) / blocks
		rw := getRows(AllFields)
		p := All
		i := 0
		alloctest.Check(t, "archive-block-decode", 0, func() {
			rw.reset(AllFields)
			if err := r.decodeBlock(&r.index[i%blocks], p, rw); err != nil {
				t.Fatal(err)
			}
			i++
		})
		rw.release()
		t.Logf("%d-byte blocks: ~%d records per block", blockBytes, perBlock)
	}
}

// TestLentRowWritesCaught: emit must not write to the row it is lent, since
// the row is set to blank once per query and a load rewrites only the
// projected parts. Under poisonScratch a write — to an unprojected part, a
// field or the blank port list in place, which every later row would read,
// or to a projected one — panics at the emit that made it, and an emit that
// only reads does not.
func TestLentRowWritesCaught(t *testing.T) {
	poisonScratch.Store(true)
	defer poisonScratch.Store(false)
	scans, origins := testScans(600, 53)
	r := openArchive(t, writeArchive(t, scans, origins, WriterConfig{TelescopeSize: 4096, Origins: true, BlockBytes: 4 << 10}))
	query := func(emit func(*core.Scan, *enrich.Origin)) (caught any) {
		defer func() { caught = recover() }()
		if err := r.Query(context.Background(), every{n: 1, fields: FieldRate | FieldCountry}, emit); err != nil {
			t.Fatal(err)
		}
		return nil
	}
	for _, c := range []struct {
		name   string
		emit   func(*core.Scan, *enrich.Origin)
		caught bool
	}{
		{"a scan field", func(sc *core.Scan, _ *enrich.Origin) { sc.Src++ }, true},
		{"the blank port list", func(sc *core.Scan, _ *enrich.Origin) { sc.Ports[0] = 80 }, true},
		{"an origin field", func(_ *core.Scan, o *enrich.Origin) { o.ASN = 7 }, true},
		{"a projected field", func(sc *core.Scan, o *enrich.Origin) { sc.RatePPS, o.Country = 1, "" }, true},
		{"nothing", func(sc *core.Scan, o *enrich.Origin) { _ = sc.RatePPS + float64(len(o.Country)) }, false},
	} {
		caught := query(c.emit)
		if msg, _ := caught.(string); strings.Contains(msg, "emit wrote to its lent row") != c.caught {
			t.Errorf("a write to %s: caught %v, want a panic %v", c.name, caught, c.caught)
		}
	}
	if err := scan(t, r, context.Background(), All, func(*core.Scan, *enrich.Origin) {}); err != nil {
		t.Fatal(err) // the reader still works after the panics
	}
}

// shape is a test predicate of one of the selective workload's query shapes:
// the strips its filter reads, the strips it projects, and a third of the
// records kept.
type shape struct{ filter, fields Fields }

func (p shape) MatchBlock(*ZoneMap) bool                   { return true }
func (p shape) Match(sc *core.Scan, _ *enrich.Origin) bool { return sc.Start%3 == 0 }
func (p shape) Fields() Fields                             { return p.fields }
func (p shape) MatchFields() Fields                        { return p.filter }

// TestAllocBudgetSelectiveRotation is the enforced budget for decoding blocks
// under filters whose projections change from query to query, as the
// selective workload's four shapes take turns: year and port counted; a
// source network, year and port count, as rows; a week by tool; a tool, year
// and two-phase flag by port. Each shape decodes blocks of a couple of
// filter runs into a warm row set of its own, and all of them through the one
// scratch, whose filter columns are not dropped when the filter's strips
// change: nothing is allocated in steady state. Reported under
// "archive-block-decode-selective".
func TestAllocBudgetSelectiveRotation(t *testing.T) {
	scans, origins := testScans(6000, 59)
	r := openArchive(t, writeArchive(t, scans, origins, WriterConfig{TelescopeSize: 4096, Origins: true, BlockBytes: 64 << 10}))
	if n := r.index[0].Scans; n <= filterRun {
		t.Fatalf("%d records a block: the filter's strips decode in one run", n)
	}
	shapes := []Predicate{ // as interfaces once: boxing a shape allocates
		shape{FieldStart | FieldPorts, FieldStart | FieldPorts},
		shape{FieldSrc | FieldStart | FieldPorts, AllFields},
		shape{FieldStart, FieldStart | FieldTool | FieldPackets},
		shape{FieldTool | FieldStart | FieldPhase, FieldTool | FieldStart | FieldPhase | FieldPorts},
	}
	sets := make([]*rows, len(shapes))
	for k, p := range shapes {
		sets[k] = getRows(p.Fields())
	}
	blocks := r.NumBlocks()
	i := 0
	rotate := func() {
		for k, p := range shapes {
			sets[k].reset(p.Fields())
			if err := r.decodeBlock(&r.index[i%blocks], p, sets[k]); err != nil {
				t.Fatal(err)
			}
			if sets[k].n == 0 || sets[k].n == int(r.index[i%blocks].Scans) {
				t.Fatalf("shape %d kept %d of %d records", k, sets[k].n, r.index[i%blocks].Scans)
			}
		}
		i++
	}
	for range blocks {
		rotate() // every set and the scratch at the size of the largest block
	}
	alloctest.Check(t, "archive-block-decode-selective", 0, rotate)
	for _, rw := range sets {
		rw.release()
	}
}
