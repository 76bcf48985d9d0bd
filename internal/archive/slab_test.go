package archive

import (
	"context"
	"reflect"
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

// cloneScan deep-copies a scan, so a later comparison sees what the scan held
// when it was emitted rather than whatever its slab memory holds now.
func cloneScan(sc *core.Scan) *core.Scan {
	c := *sc
	c.Ports = append([]uint16(nil), sc.Ports...)
	if sc.Payload != nil {
		c.Payload = append([]byte(nil), sc.Payload...)
	}
	return &c
}

// TestSlabAliasing pins the slab and arena ownership rules: a scan kept from
// one block is bit-identical after every later block has decoded into the
// same worker's slabs, with rejected records in between lending and handing
// back the very slots and arena runs the kept ones sit next to, and with a
// record of more than portsMax ports forcing a fresh arena chunk mid-stream.
// Scratch poisoning is on, so anything still pointing into a pooled read
// buffer turns to 0xdb as soon as its block is released.
func TestSlabAliasing(t *testing.T) {
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
	scans[900].Ports = wide(portsMax + 1000) // kept (900%3 == 0): a chunk of its own
	scans[901].Ports = wide(portsMax + 5000) // rejected: lent a bigger chunk, hands it back
	scans[1800].Ports = wide(3 * portsMax)   // kept, a few blocks later
	data := writeArchive(t, scans, origins, WriterConfig{TelescopeSize: 4096, Origins: true, BlockBytes: 8 << 10})

	for _, workers := range []int{1, 3} {
		r := openArchive(t, data)
		r.SetWorkers(workers)
		if r.NumBlocks() < 8 {
			t.Fatalf("want many blocks, got %d", r.NumBlocks())
		}
		var kept, snaps []*core.Scan
		var keptOrigins []*enrich.Origin
		var originSnaps []enrich.Origin
		err := scan(t, r, context.Background(), every{n: 3, fields: AllFields}, func(sc *core.Scan, o *enrich.Origin) {
			kept, snaps = append(kept, sc), append(snaps, cloneScan(sc))
			keptOrigins, originSnaps = append(keptOrigins, o), append(originSnaps, *o)
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := (len(scans) + 2) / 3; len(kept) != want {
			t.Fatalf("workers=%d: kept %d scans, want %d", workers, len(kept), want)
		}
		// Churn the pool once more, through a second query's slabs.
		if err := scan(t, r, context.Background(), All, func(*core.Scan, *enrich.Origin) {}); err != nil {
			t.Fatal(err)
		}
		for i, sc := range kept {
			if !reflect.DeepEqual(sc, snaps[i]) {
				t.Fatalf("workers=%d: kept scan %d changed after later blocks decoded:\n now:  %+v\n then: %+v", workers, i, sc, snaps[i])
			}
			if !reflect.DeepEqual(sc, scans[3*i]) {
				t.Fatalf("workers=%d: kept scan %d differs from what was archived:\n got:  %+v\n want: %+v", workers, i, sc, scans[3*i])
			}
			if *keptOrigins[i] != originSnaps[i] || *keptOrigins[i] != origins[3*i] {
				t.Fatalf("workers=%d: kept origin %d changed: %+v, emitted as %+v, archived as %+v",
					workers, i, *keptOrigins[i], originSnaps[i], origins[3*i])
			}
			if cap(sc.Ports) != len(sc.Ports) {
				t.Fatalf("workers=%d: scan %d's ports have spare capacity %d: an append would write into its neighbour",
					workers, i, cap(sc.Ports)-len(sc.Ports))
			}
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
// records on top of the pooled read: at most 6 allocations per block in
// steady state, whether a block holds a hundred records or eight hundred —
// slab and arena chunks amortized over the records they hold and the block's
// run list — where the per-record decode this replaces made five per record. Reported under "archive-block-decode".
func TestAllocBudgetBlockDecode(t *testing.T) {
	scans, origins := testScans(16000, 47)
	for _, blockBytes := range []int{8 << 10, 64 << 10} {
		data := writeArchive(t, scans, origins, WriterConfig{TelescopeSize: 4096, Origins: true, BlockBytes: blockBytes})
		r := openArchive(t, data)
		blocks := r.NumBlocks()
		perBlock := len(scans) / blocks
		// One worker's slabs, as long-lived as a full scan's.
		sl := newSlabs(AllFields)
		p := All
		i := 0
		alloctest.Check(t, "archive-block-decode", 6, func() {
			if res := r.decodeBlock(&r.index[i%blocks], p, sl); res.err != nil {
				t.Fatal(res.err)
			}
			i++
		})
		t.Logf("%d-byte blocks: ~%d records per block", blockBytes, perBlock)
	}
}
