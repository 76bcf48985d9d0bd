package archive

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
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
// failed scans and degraded (skip-corrupt) scans alike.
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
		r := openSkipCorrupt(t, bad)
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

// sealRuns seals one segment per count, taking the scans (and, on an origins
// store, their origins) in order, and returns how many it used.
func sealRuns(t testing.TB, sw *SegmentWriter, scans []*core.Scan, origins []enrich.Origin, counts ...int) int {
	t.Helper()
	at := 0
	for _, n := range counts {
		for i := at; i < at+n; i++ {
			var err error
			if sw.cfg.Origins {
				err = sw.AddWithOrigin(scans[i], origins[i])
			} else {
				err = sw.Add(scans[i])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Seal(); err != nil {
			t.Fatal(err)
		}
		at += n
	}
	return at
}

// fileStreams maps the stored payload of each block of the archive file at
// path to how many strips it holds a stream for (the non-empty entries of its
// directory).
func fileStreams(t testing.TB, path string) map[string]uint64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string]uint64{}
	for _, z := range openArchive(t, data).Blocks() {
		n := uint64(0)
		for _, stream := range takeApart(data, z).streams {
			if len(stream) > 0 {
				n++
			}
		}
		streams[string(blockPayload(data, z))] = n
	}
	return streams
}

// TestCompactionConservation: before ≡ after over inputs that mix every kind
// of block the move-or-re-encode rule tells apart — runs of full blocks, a
// segment that is one half-full block, segments of two or three records —
// and the compactor's books close:
//
//	blocks_moved + blocks_rewritten == blocks of the output
//	every output block but the last is at least half a full block
//	the output's manifest entry is what a fresh read of the file gives
//	strips.stored + strips.deflated == streams of the blocks a writer encoded
//
// The last holds when the inputs are sealed and again after the compaction, to
// which a moved block adds nothing: the writer that encoded it counted it.
func TestCompactionConservation(t *testing.T) {
	const blockBytes = 4 << 10 // about 90 of testScans' records
	for _, withOrigins := range []bool{false, true} {
		reg := obs.NewRegistry()
		sw := segStore(t, SegmentConfig{TelescopeSize: 4096, Origins: withOrigins, BlockBytes: blockBytes, Metrics: reg})
		scans, origins := testScans(4000, 61)
		n := sealRuns(t, sw, scans, origins, 1000, 50, 3, 400, 60, 2, 2, 700, 95, 1, 600, 45, 300)
		scans = scans[:n]
		before := catalogScans(t, sw.Dir(), CatalogConfig{})
		if !reflect.DeepEqual(before, scans) {
			t.Fatal("store diverges from its input before compaction")
		}

		inputs := map[string]bool{}
		var encoded uint64
		for _, seg := range sw.SealedSegments() {
			for payload, n := range fileStreams(t, filepath.Join(sw.Dir(), seg.Name)) {
				inputs[payload] = true
				encoded += n
			}
		}
		streamsCounted := func() uint64 {
			snap := reg.Snapshot()
			stored, deflated := snap.Counter("archive.strips.stored"), snap.Counter("archive.strips.deflated")
			if stored == 0 || deflated == 0 {
				t.Errorf("origins=%v: %d strips stored, %d deflated: the input was meant to need both", withOrigins, stored, deflated)
			}
			return stored + deflated
		}
		if got := streamsCounted(); got != encoded {
			t.Errorf("conservation: %d strips counted, the sealed blocks hold %d streams", got, encoded)
		}

		comp := NewCompactor(sw, CompactorConfig{MinRun: 2, Metrics: reg})
		if merged, err := comp.CompactOnce(); err != nil || merged != 13 {
			t.Fatalf("origins=%v: merged %d inputs, err %v", withOrigins, merged, err)
		}
		if after := catalogScans(t, sw.Dir(), CatalogConfig{}); !reflect.DeepEqual(after, scans) {
			t.Fatalf("origins=%v: compaction changed the scan sequence", withOrigins)
		}

		segs := sw.SealedSegments()
		if len(segs) != 1 {
			t.Fatalf("%d segments after compaction, want 1", len(segs))
		}
		fresh, err := statSegment(sw.Dir(), segs[0].Name)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Compacted = true
		if fresh != segs[0] {
			t.Fatalf("origins=%v: manifest entry %+v, the file says %+v", withOrigins, segs[0], fresh)
		}
		snap := reg.Snapshot()
		moved, rewritten := snap.Counter("archive.compaction.blocks_moved"), snap.Counter("archive.compaction.blocks_rewritten")
		if moved+rewritten != uint64(segs[0].Blocks) {
			t.Errorf("conservation: %d blocks moved + %d rewritten != %d output blocks", moved, rewritten, segs[0].Blocks)
		}
		var sameAsInput uint64
		for payload, n := range fileStreams(t, filepath.Join(sw.Dir(), segs[0].Name)) {
			if inputs[payload] {
				sameAsInput++
			} else {
				encoded += n
			}
		}
		if sameAsInput != moved {
			t.Errorf("conservation: %d blocks moved, %d output blocks are an input's bytes", moved, sameAsInput)
		}
		if got := streamsCounted(); got != encoded {
			t.Errorf("conservation: %d strips counted, the sealed and the rewritten blocks hold %d streams", got, encoded)
		}
		if moved == 0 || rewritten == 0 {
			t.Errorf("origins=%v: %d moved, %d rewritten: the input was meant to need both", withOrigins, moved, rewritten)
		}
		rd, err := openSegment(sw.Dir(), segs[0].Name, false)
		if err != nil {
			t.Fatal(err)
		}
		zones := rd.Blocks()
		rd.Close()
		for i, z := range zones[:len(zones)-1] {
			if z.RawLen < blockBytes/2 {
				t.Errorf("origins=%v: output block %d of %d holds %d raw bytes, under half of %d",
					withOrigins, i, len(zones), z.RawLen, blockBytes)
			}
		}
		sw.Close()
	}
}
