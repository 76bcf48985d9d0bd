package archive

import (
	"bytes"
	"context"
	"testing"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/tools"
)

// scan is r.Query with the reader's books checked afterwards: the archive
// tests route their queries through it, so the conservation laws below hold
// after every query they make — full scans, pruned scans, cancelled scans,
// failed scans and degraded (WithSkipCorrupt) scans alike.
//
//	blocks.scanned + blocks.skipped == NumBlocks   every block is accounted for
//	scans.decoded >= scans.matched                 nothing matches undecoded
//	scans.matched == scans emitted                 on a query that completes
//	scans.decoded == Σ Scans of the intact blocks p admits, likewise
//
// The scan counters are added once per block, so the last two also pin the
// batching. Not for concurrent use on one reader: it may install a registry
// and reads counter deltas.
func scan(t testing.TB, r *Reader, ctx context.Context, p Predicate, emit func(*core.Scan, *enrich.Origin)) error {
	t.Helper()
	reg := r.met // a test that reads the counters itself keeps its registry
	if reg == nil {
		reg = obs.NewRegistry()
		r.SetMetrics(reg)
		defer r.SetMetrics(nil)
	}
	before := reg.Snapshot()
	corruptBefore := r.CorruptBlocks()
	var emitted uint64
	err := r.Query(ctx, p, func(sc *core.Scan, o *enrich.Origin) {
		emitted++
		emit(sc, o)
	})
	after := reg.Snapshot()
	count := func(name string) uint64 { return after.Counter(name) - before.Counter(name) }
	scanned, skipped := count("archive.blocks.scanned"), count("archive.blocks.skipped")
	decoded, matched := count("archive.scans.decoded"), count("archive.scans.matched")
	corrupt := count("faults.archive.corrupt_blocks")
	if scanned+skipped != uint64(r.NumBlocks()) {
		t.Errorf("conservation: %d blocks scanned + %d skipped != %d blocks", scanned, skipped, r.NumBlocks())
	}
	if decoded < matched {
		t.Errorf("conservation: %d scans decoded < %d matched", decoded, matched)
	}
	if got := r.CorruptBlocks() - corruptBefore; got != corrupt {
		t.Errorf("conservation: CorruptBlocks grew by %d, the counter by %d", got, corrupt)
	}
	if err != nil {
		return err
	}
	if matched != emitted {
		t.Errorf("conservation: %d scans matched, %d emitted", matched, emitted)
	}
	var admitted, admittedScans uint64
	for _, z := range r.Blocks() {
		if p.MatchBlock(&z) {
			admitted++
			admittedScans += uint64(z.Scans)
		}
	}
	if scanned != admitted {
		t.Errorf("conservation: %d blocks scanned, the predicate admits %d", scanned, admitted)
	}
	if corrupt == 0 && decoded != admittedScans {
		t.Errorf("conservation: %d scans decoded, the admitted blocks hold %d", decoded, admittedScans)
	}
	if decoded > admittedScans {
		t.Errorf("conservation: %d scans decoded from blocks holding %d", decoded, admittedScans)
	}
	return nil
}

// TestReaderConservation drives the laws in scan through the cases that
// stress them: a predicate that prunes most blocks and rejects most records
// of the rest, one that prunes everything, and a degraded read over damaged
// blocks, each with one and with several decode workers.
func TestReaderConservation(t *testing.T) {
	scans, origins := testScans(6000, 31)
	data := writeArchive(t, scans, origins, WriterConfig{TelescopeSize: 4096, Origins: true, BlockBytes: 8 << 10})
	pfx := inetmodel.Prefix{Base: 0x40000000, Bits: 3}
	preds := map[string]Predicate{
		"all":       All,
		"selective": &Filter{Years: []int{2019}, Tools: []tools.Tool{tools.Tool(2)}, QualifiedOnly: true},
		"prefix":    &Filter{SrcPrefix: &pfx, MinRate: 4000},
		"nothing":   &Filter{Years: []int{1999}},
	}
	noop := func(*core.Scan, *enrich.Origin) {}
	for _, workers := range []int{1, 4} {
		r := openArchive(t, data)
		r.SetWorkers(workers)
		for name, p := range preds {
			if err := scan(t, r, context.Background(), p, noop); err != nil {
				t.Fatalf("workers=%d %s: %v", workers, name, err)
			}
		}
	}

	// Damage two blocks: the strict reader fails (and still accounts for
	// every block), the degraded one skips them and counts what it decoded.
	bad := append([]byte(nil), data...)
	zones := openArchive(t, data).Blocks()
	for _, i := range []int{1, len(zones) - 2} {
		bad[int(zones[i].Offset)+blockCRCLen+3] ^= 0xff
	}
	if err := scan(t, openArchive(t, bad), context.Background(), All, noop); err == nil {
		t.Fatal("strict reader read damaged blocks without error")
	}
	for _, workers := range []int{1, 4} {
		r, err := NewReader(bytes.NewReader(bad), int64(len(bad)), WithSkipCorrupt())
		if err != nil {
			t.Fatal(err)
		}
		r.SetWorkers(workers)
		for name, p := range preds {
			if err := scan(t, r, context.Background(), p, noop); err != nil {
				t.Fatalf("degraded workers=%d %s: %v", workers, name, err)
			}
		}
		if r.CorruptBlocks() == 0 {
			t.Fatal("degraded reader skipped no block")
		}
	}
}
