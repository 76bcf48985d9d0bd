package archive

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/faultinject"
	"github.com/synscan/synscan/internal/rng"
)

// serialStore is the reference the pipelined write path is held to: a segment
// store encoder that deflates every block inline, on the caller's goroutine,
// the moment it fills — no hand-off, no free list, no goroutine — and keeps
// its files in memory. It shares the block encoder and the zone-map codec
// with the package (they are not what the pipeline changed) and restates
// everything the pipeline did change: the strips' streams and their
// directory, block framing, offsets, the index, the trailer, and the rotation
// rule, including what Offset reports — every block but the one most recently
// closed, which in the real Writer is still in flight.
type serialStore struct {
	cfg   SegmentConfig
	files map[string][]byte
	man   Manifest
	cur   *serialSegment
}

type serialSegment struct {
	file               bytes.Buffer
	enc                blockEncoder
	zone               ZoneMap
	years              YearCache
	index              []ZoneMap
	lastBlock          int // bytes of the block closed last
	nScans             uint64
	minStart, maxStart int64
}

func newSerialStore(cfg SegmentConfig) *serialStore {
	if cfg.BlockBytes <= 0 {
		cfg.BlockBytes = DefaultBlockBytes
	}
	if cfg.MaxSegmentBytes <= 0 {
		cfg.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if cfg.MaxSegmentScans == 0 {
		cfg.MaxSegmentScans = DefaultMaxSegmentScans
	}
	// The writer lock's file is in the directory from the open on, empty.
	return &serialStore{cfg: cfg, files: map[string][]byte{LockName: nil}, man: Manifest{NextSeq: 1}}
}

func (s *serialStore) add(t testing.TB, sc *core.Scan, o *enrich.Origin) {
	if g := s.cur; g != nil {
		offset := int64(g.file.Len() - g.lastBlock)
		if g.nScans >= s.cfg.MaxSegmentScans || offset >= s.cfg.MaxSegmentBytes {
			s.seal(t)
		}
	}
	if s.cur == nil {
		s.cur = &serialSegment{}
		hdr, err := header(s.cfg.TelescopeSize, s.cfg.Origins)
		if err != nil {
			t.Fatal(err)
		}
		s.cur.file.Write(hdr)
		s.cur.zone.reset()
	}
	g := s.cur
	rawLen := g.enc.add(sc, o)
	g.zone.observe(sc, g.years.Year(sc.Start))
	if g.nScans == 0 || sc.Start < g.minStart {
		g.minStart = sc.Start
	}
	if g.nScans == 0 || sc.Start > g.maxStart {
		g.maxStart = sc.Start
	}
	g.nScans++
	if rawLen >= s.cfg.BlockBytes {
		g.closeBlock(t)
	}
}

func (g *serialSegment) closeBlock(t testing.TB) {
	if g.zone.Scans == 0 {
		return
	}
	// The payload: one (stored, inflated) length pair per strip, then each
	// non-empty strip's stream — deflated by a compressor of its own when
	// that saves an eighth of the strip, in stored blocks when it does not.
	var dir, streams []byte
	for _, strip := range g.enc.strips {
		var stream []byte
		if len(strip) > 0 {
			stream = deflated(t, strip)
			if len(stream) > len(strip)-len(strip)/8 {
				stream = storedBlocks(strip)
			}
		}
		dir = binary.BigEndian.AppendUint32(dir, uint32(len(stream)))
		dir = binary.BigEndian.AppendUint32(dir, uint32(len(strip)))
		streams = append(streams, stream...)
	}
	payload := append(dir, streams...)
	g.zone.Offset = uint64(g.file.Len())
	g.zone.CompressedLen = uint32(len(payload))
	g.zone.RawLen = uint32(g.enc.rawLen())
	binary.Write(&g.file, binary.BigEndian, crc32.ChecksumIEEE(payload))
	g.file.Write(payload)
	g.lastBlock = blockCRCLen + len(payload)
	g.index = append(g.index, g.zone)
	g.enc.reset()
	g.zone.reset()
}

// storedBlocks is raw as a DEFLATE stream of stored blocks alone (RFC 1951
// §3.2.4): per block of at most 65 535 bytes a header byte — BFINAL in bit 0,
// BTYPE 00, padding — then LEN and its complement, little-endian, then the
// bytes.
func storedBlocks(raw []byte) []byte {
	var out []byte
	for {
		n := min(len(raw), 0xffff)
		hdr := byte(0)
		if n == len(raw) {
			hdr = 1
		}
		out = append(out, hdr)
		out = binary.LittleEndian.AppendUint16(out, uint16(n))
		out = binary.LittleEndian.AppendUint16(out, ^uint16(n))
		out = append(out, raw[:n]...)
		if raw = raw[n:]; len(raw) == 0 {
			return out
		}
	}
}

func (s *serialStore) seal(t testing.TB) {
	g := s.cur
	s.cur = nil
	if g == nil || g.nScans == 0 {
		return
	}
	g.closeBlock(t)
	idx := binary.BigEndian.AppendUint32(nil, uint32(len(g.index)))
	for i := range g.index {
		idx = g.index[i].marshal(idx)
	}
	tr := binary.BigEndian.AppendUint64(nil, uint64(g.file.Len()))
	tr = binary.BigEndian.AppendUint32(tr, uint32(len(idx)))
	tr = binary.BigEndian.AppendUint32(tr, crc32.ChecksumIEEE(idx))
	tr = append(tr, TrailerMagic[:]...)
	g.file.Write(idx)
	g.file.Write(tr)

	name := SegmentName(s.man.NextSeq)
	s.man.NextSeq++
	s.files[name] = g.file.Bytes()
	s.man.Segments = append(s.man.Segments, SegmentMeta{
		Name: name, Scans: g.nScans, Blocks: len(g.index), Bytes: int64(g.file.Len()),
		MinStart: g.minStart, MaxStart: g.maxStart,
	})
	s.man.Generation++
	data, err := json.MarshalIndent(&s.man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	s.files[ManifestName] = append(data, '\n')
}

// TestPipelineMatchesSerialEncoder: for random scans, block bounds and
// rotation bounds small enough to seal several segments, the store the
// pipelined Writer leaves on disk — every sealed file and the manifest — is
// byte for byte what the serial reference produces. Nothing in the reference
// depends on timing, so equality here is also equality across runs and across
// GOMAXPROCS (CI runs this package under -race -cpu 1,2,4). The rounds are
// drawn first and then run as parallel subtests: they share nothing.
func TestPipelineMatchesSerialEncoder(t *testing.T) {
	r := rng.New(41)
	type draw struct {
		n   int
		cfg SegmentConfig
	}
	var rounds []draw
	for round := 0; round < 12; round++ {
		n := 3000 + int(r.Uint32()%4000)
		rounds = append(rounds, draw{n, SegmentConfig{
			TelescopeSize:   4096,
			Origins:         round%2 == 0,
			BlockBytes:      256 + int(r.Uint32()%(8<<10)),
			MaxSegmentBytes: int64(2<<10 + r.Uint32()%(18<<10)),
			MaxSegmentScans: uint64(200 + r.Uint32()%1500),
		}})
	}
	for round, d := range rounds {
		t.Run(fmt.Sprintf("round %d", round), func(t *testing.T) {
			t.Parallel()
			pipelineMatchesSerialEncoder(t, round, d.n, d.cfg)
		})
	}
}

// pipelineMatchesSerialEncoder runs one round: n scans of seed 100+round.
func pipelineMatchesSerialEncoder(t *testing.T, round, n int, cfg SegmentConfig) {
	scans, origins := testScans(n, uint64(100+round))

	ref := newSerialStore(cfg)
	sw := segStore(t, cfg)
	for i, sc := range scans {
		var err error
		if cfg.Origins {
			ref.add(t, sc, &origins[i])
			err = sw.AddWithOrigin(sc, origins[i])
		} else {
			ref.add(t, sc, nil)
			err = sw.Add(sc)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ref.seal(t)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	if len(ref.man.Segments) < 3 {
		t.Fatalf("round %d (%+v): only %d segments, the bounds did not rotate", round, cfg, len(ref.man.Segments))
	}
	entries, err := os.ReadDir(sw.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(ref.files) {
		t.Fatalf("round %d (%+v): %d files on disk, reference has %d", round, cfg, len(entries), len(ref.files))
	}
	for name, want := range ref.files {
		got, err := os.ReadFile(filepath.Join(sw.Dir(), name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d (%+v): %s differs from the serial reference (%d vs %d bytes)",
				round, cfg, name, len(got), len(want))
		}
	}
}

// settleGoroutines waits for the goroutine count to come back to base: a
// compressor that has signalled done may still be on its way out.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineWriteFaults fails the n-th write to the underlying stream for
// every n a run makes. The error must come back from a later Add or from
// Close — never be lost behind the hand-off — Close must keep returning what
// it returned first, and no compressor goroutine may outlive the Writer,
// closed or abandoned.
func TestPipelineWriteFaults(t *testing.T) {
	scans, _ := testScans(3000, 43)
	cfg := WriterConfig{TelescopeSize: 4096, BlockBytes: 4 << 10}
	// run drives one Writer to the end and returns the first error an Add
	// gave (it stops adding there) and what Close gave.
	run := func(fw *faultinject.Writer) (addErr, closeErr error, w *Writer) {
		w, err := NewWriter(fw, cfg)
		if err != nil {
			return err, err, nil
		}
		for _, sc := range scans {
			if addErr = w.Add(sc); addErr != nil {
				break
			}
		}
		return addErr, w.Close(), w
	}

	base := runtime.NumGoroutine()
	dry := faultinject.NewWriter(&bytes.Buffer{}, 0)
	if addErr, closeErr, _ := run(dry); addErr != nil || closeErr != nil {
		t.Fatalf("dry run: add %v, close %v", addErr, closeErr)
	}
	if dry.Writes() < 4 {
		t.Fatalf("only %d underlying writes: too few failure points", dry.Writes())
	}
	for n := 1; n <= dry.Writes(); n++ {
		fw := faultinject.NewWriter(&bytes.Buffer{}, n)
		addErr, closeErr, w := run(fw)
		if w == nil {
			// The header write failed: NewWriter itself reported it.
			if !errors.Is(addErr, faultinject.ErrInjectedWrite) {
				t.Fatalf("write %d: NewWriter returned %v", n, addErr)
			}
			continue
		}
		if !errors.Is(closeErr, faultinject.ErrInjectedWrite) {
			t.Fatalf("write %d failed, Close returned %v (Add: %v)", n, closeErr, addErr)
		}
		if addErr != nil && addErr != closeErr {
			t.Fatalf("write %d: Add returned %v, Close %v", n, addErr, closeErr)
		}
		if again := w.Close(); again != closeErr {
			t.Fatalf("write %d: second Close returned %v, first %v", n, again, closeErr)
		}
		if err := w.Add(scans[0]); err == nil {
			t.Fatalf("write %d: Add after a failed Close succeeded", n)
		}
	}
	settleGoroutines(t, base, "after the closed writers")

	// Abandoned mid-stream, with a block in flight: nothing to join, nothing
	// left behind.
	for i := 0; i < 8; i++ {
		w, err := NewWriter(&bytes.Buffer{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scans[:1500+100*i] {
			if err := w.Add(sc); err != nil {
				t.Fatal(err)
			}
		}
	}
	settleGoroutines(t, base, "after the abandoned writers")
}

// TestPipelinePoisoning is TestPoolPoisoning for the write side: with every
// released compressor unit and read scratch scribbled on release, archives
// written one after another through the same recycled unit — directly and by
// a compaction that moves blocks out of read scratch — hold exactly the bytes
// they hold without poisoning. Anything written that still aliased a unit
// would carry 0xdb.
func TestPipelinePoisoning(t *testing.T) {
	scans, origins := testScans(4000, 47)
	cfg := WriterConfig{TelescopeSize: 4096, Origins: true, BlockBytes: 4 << 10}
	build := func() (archive []byte, compacted []byte) {
		archive = writeArchive(t, scans, origins, cfg)
		sw := segStore(t, SegmentConfig{TelescopeSize: 4096, BlockBytes: 4 << 10, MaxSegmentScans: 700})
		addAll(t, sw, scans)
		if err := sw.Seal(); err != nil {
			t.Fatal(err)
		}
		comp := NewCompactor(sw, CompactorConfig{MinRun: 2})
		if n, err := comp.CompactOnce(); err != nil || n == 0 {
			t.Fatalf("compaction: n=%d err=%v", n, err)
		}
		segs := sw.SealedSegments()
		if len(segs) != 1 {
			t.Fatalf("%d segments after compaction, want 1", len(segs))
		}
		compacted, err := os.ReadFile(filepath.Join(sw.Dir(), segs[0].Name))
		if err != nil {
			t.Fatal(err)
		}
		if got := catalogScans(t, sw.Dir(), CatalogConfig{}); !reflect.DeepEqual(got, scans) {
			t.Fatal("compacted store diverges from the input")
		}
		sw.Close()
		return archive, compacted
	}
	cleanArchive, cleanCompacted := build()
	poisonScratch.Store(true)
	defer poisonScratch.Store(false)
	for round := 0; round < 2; round++ { // the second round writes through units the first poisoned
		archive, compacted := build()
		if !bytes.Equal(archive, cleanArchive) {
			t.Fatalf("round %d: archive written under poisoning differs", round)
		}
		if !bytes.Equal(compacted, cleanCompacted) {
			t.Fatalf("round %d: compacted segment written under poisoning differs", round)
		}
	}
}
