package archive

import (
	"context"
	"reflect"
	"testing"

	"github.com/synscan/synscan/internal/alloctest"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
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

// TestProjectedDecode: a predicate that leaves parts out of Fields gets the
// same records with exactly those parts absent — nil ports, nil payload, nil
// origin — and everything else identical; a full projection (what Filter and
// select-mode queries ask for) gets every field.
func TestProjectedDecode(t *testing.T) {
	scans, origins := testScans(3000, 43)
	data := writeArchive(t, scans, origins, WriterConfig{TelescopeSize: 4096, Origins: true, BlockBytes: 8 << 10})
	r := openArchive(t, data)
	for fields := Fields(0); fields <= AllFields; fields++ {
		i := 0
		err := scan(t, r, context.Background(), every{n: 1, fields: fields}, func(sc *core.Scan, o *enrich.Origin) {
			want := *scans[i]
			if fields&FieldPorts == 0 {
				want.Ports = nil
			}
			if fields&FieldPayload == 0 {
				want.Payload = nil
			}
			if !reflect.DeepEqual(sc, &want) {
				t.Fatalf("fields=%03b scan %d:\n got:  %+v\n want: %+v", fields, i, sc, &want)
			}
			switch {
			case fields&FieldOrigin == 0 && o != nil:
				t.Fatalf("fields=%03b scan %d: origin %+v although not projected", fields, i, *o)
			case fields&FieldOrigin != 0 && (o == nil || *o != origins[i]):
				t.Fatalf("fields=%03b scan %d: origin %+v, want %+v", fields, i, o, origins[i])
			}
			i++
		})
		if err != nil {
			t.Fatal(err)
		}
		if i != len(scans) {
			t.Fatalf("fields=%03b: %d scans, want %d", fields, i, len(scans))
		}
	}
	if f := (All).Fields(); f != AllFields {
		t.Fatalf("Filter projects %03b, want everything", f)
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
