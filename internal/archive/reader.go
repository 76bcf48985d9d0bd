package archive

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/inflate"
	"github.com/synscan/synscan/internal/obs"
)

// Reader queries an archive file. It parses the footer index once at open;
// Query then decompresses only the blocks a Predicate cannot prune, on a
// worker pool, and streams decoded scans to the caller in file order.
// A Reader is safe for concurrent Query calls (each call owns its pool).
type Reader struct {
	ra          io.ReaderAt
	size        int64
	telSize     int
	origins     bool
	skipCorrupt bool
	index       []ZoneMap
	total       uint64
	workers     int
	closer      io.Closer
	corrupt     atomic.Uint64

	met         *obs.Registry
	mScanned    *obs.Counter
	mSkipped    *obs.Counter
	mBytes      *obs.Counter
	mDecoded    *obs.Counter
	mMatched    *obs.Counter
	mCorrupt    *obs.Counter
	mDecompress *obs.Histogram
}

// ReaderOption customizes Open and NewReader.
type ReaderOption func(*Reader)

// WithSkipCorrupt puts the reader in degraded mode: a block that fails its
// checksum (or any other block-local read/decode check) is skipped instead
// of failing the whole query. Skipped blocks are counted in CorruptBlocks
// and the faults.archive.corrupt_blocks metric; every intact block still
// streams, in order. The default (without this option) is fail-fast: any
// damaged block aborts Query with an error.
func WithSkipCorrupt() ReaderOption {
	return func(r *Reader) { r.skipCorrupt = true }
}

// Open opens an archive file for querying; Close releases it.
func Open(path string, opts ...ReaderOption) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size(), opts...)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// NewReader opens an archive over any random-access byte source.
func NewReader(ra io.ReaderAt, size int64, opts ...ReaderOption) (*Reader, error) {
	if size < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: file too short (%d bytes)", ErrCorrupt, size)
	}
	var hdr [headerLen]byte
	if _, err := ra.ReadAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if [4]byte(hdr[:4]) != Magic {
		return nil, ErrBadMagic
	}
	if hdr[4] != version {
		return nil, fmt.Errorf("%w %d (this build reads version %d only; re-create with syneval -archive-out / synalyze -archive / syningest)",
			ErrBadVersion, hdr[4], version)
	}
	if hdr[5]&flagPhases == 0 {
		return nil, fmt.Errorf("%w: version %d header without the phase flag", ErrCorrupt, version)
	}

	var tr [trailerLen]byte
	if _, err := ra.ReadAt(tr[:], size-trailerLen); err != nil {
		return nil, err
	}
	if [4]byte(tr[16:20]) != TrailerMagic {
		return nil, fmt.Errorf("%w: bad trailer magic", ErrCorrupt)
	}
	idxOff := binary.BigEndian.Uint64(tr[0:8])
	idxLen := binary.BigEndian.Uint32(tr[8:12])
	wantCRC := binary.BigEndian.Uint32(tr[12:16])
	if idxOff < headerLen || int64(idxOff)+int64(idxLen) != size-trailerLen {
		return nil, fmt.Errorf("%w: index bounds", ErrCorrupt)
	}
	idx := make([]byte, idxLen)
	if _, err := ra.ReadAt(idx, int64(idxOff)); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(idx) != wantCRC {
		return nil, fmt.Errorf("%w: index checksum mismatch", ErrCorrupt)
	}
	if len(idx) < 4 {
		return nil, fmt.Errorf("%w: index too short", ErrCorrupt)
	}
	n := binary.BigEndian.Uint32(idx[:4])
	if uint64(n)*zoneMapLen != uint64(len(idx)-4) {
		return nil, fmt.Errorf("%w: index entry count", ErrCorrupt)
	}

	r := &Reader{
		ra:      ra,
		size:    size,
		telSize: int(binary.BigEndian.Uint32(hdr[6:10])),
		origins: hdr[5]&flagOrigins != 0,
		index:   make([]ZoneMap, n),
		workers: runtime.GOMAXPROCS(0),
	}
	for _, opt := range opts {
		opt(r)
	}
	for i := range r.index {
		z := unmarshalZoneMap(idx[4+i*zoneMapLen:])
		if uint64(z.Offset)+blockCRCLen+uint64(z.CompressedLen) > idxOff {
			return nil, fmt.Errorf("%w: block %d out of bounds", ErrCorrupt, i)
		}
		r.index[i] = z
		r.total += uint64(z.Scans)
	}
	r.SetMetrics(nil)
	return r, nil
}

// Close releases the underlying file when the reader came from Open.
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

// TelescopeSize returns the monitored-address count recorded at write time.
func (r *Reader) TelescopeSize() int { return r.telSize }

// HasOrigins reports whether scans carry their enrichment Origin.
func (r *Reader) HasOrigins() bool { return r.origins }

// NumBlocks returns the block count.
func (r *Reader) NumBlocks() int { return len(r.index) }

// NumScans returns the total archived scan count.
func (r *Reader) NumScans() uint64 { return r.total }

// Blocks returns a copy of the zone-map index, in file order.
func (r *Reader) Blocks() []ZoneMap {
	out := make([]ZoneMap, len(r.index))
	copy(out, r.index)
	return out
}

// SetWorkers bounds the decode pool for subsequent Query calls (minimum 1;
// the default is GOMAXPROCS). Not safe concurrently with Query.
func (r *Reader) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	r.workers = n
}

// SetMetrics wires the reader's instrumentation: blocks scanned vs skipped
// by pruning, bytes decompressed, scans decoded vs matched, per-block
// decompression time. A nil registry disables it.
func (r *Reader) SetMetrics(reg *obs.Registry) {
	r.met = reg
	r.mScanned = reg.Counter("archive.blocks.scanned")
	r.mSkipped = reg.Counter("archive.blocks.skipped")
	r.mBytes = reg.Counter("archive.bytes.decompressed")
	r.mDecoded = reg.Counter("archive.scans.decoded")
	r.mMatched = reg.Counter("archive.scans.matched")
	r.mCorrupt = reg.Counter("faults.archive.corrupt_blocks")
	r.mDecompress = reg.Histogram("archive.decompress_ns")
}

// CorruptBlocks returns the number of damaged blocks skipped so far by a
// WithSkipCorrupt reader, cumulative across Query calls (a block damaged on
// disk is counted once per query that decodes it).
func (r *Reader) CorruptBlocks() uint64 { return r.corrupt.Load() }

// blockScans is one decoded block: the kept records as runs of slab memory,
// in record order. corrupt marks a damaged block a WithSkipCorrupt reader
// converted into a counted skip.
type blockScans struct {
	runs    []run
	corrupt bool
	err     error
}

// Query streams every scan matching p to emit, in file order (block order,
// record order within a block — i.e. the order scans were archived in),
// under full predicate pushdown: blocks whose zone map p.MatchBlock excludes
// are skipped without decompression, surviving blocks are decoded on a
// worker pool while emit runs on the calling goroutine, and p.Match drops
// non-matching records before they reach emit. It is the one way to scan an
// archive: All is the Predicate for everything, internal/query compiles its
// ASTs into selective ones.
//
// emit receives pointers into the query's own decode slabs: they stay valid
// for as long as the caller holds them and are never reused, so keeping a
// scan is free but pins the slab chunk it sits in (see slabs). The origin is
// nil when the archive carries none (see HasOrigins) or p.Fields leaves it
// out; Scan.Ports and Scan.Payload are likewise nil unless p.Fields names
// them.
//
// The query stops decoding and returns ctx.Err() as soon as the context is
// done, between blocks; scans emitted up to that point are valid. Damaged
// blocks abort with an error unless the reader was opened WithSkipCorrupt
// (see CorruptBlocks).
func (r *Reader) Query(ctx context.Context, p Predicate, emit func(sc *core.Scan, o *enrich.Origin)) error {
	// Predicate pushdown over the zone maps.
	var live []int
	for i := range r.index {
		if p.MatchBlock(&r.index[i]) {
			live = append(live, i)
		}
	}
	r.mSkipped.Add(uint64(len(r.index) - len(live)))
	r.mScanned.Add(uint64(len(live)))
	if len(live) == 0 {
		return nil
	}

	workers := r.workers
	if workers > len(live) {
		workers = len(live)
	}

	// Ordered fan-out: workers decode any block, the caller drains results
	// strictly in block order so archived order is preserved end to end.
	results := make([]chan blockScans, len(live))
	for i := range results {
		results[i] = make(chan blockScans, 1)
	}
	jobs := make(chan int, len(live))
	for i := range live {
		jobs <- i
	}
	close(jobs)

	fields := p.Fields()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sl := newSlabs(fields)
			for j := range jobs {
				if err := ctx.Err(); err != nil {
					results[j] <- blockScans{err: err}
					continue
				}
				results[j] <- r.decodeBlock(&r.index[live[j]], p, sl)
			}
		}()
	}
	defer wg.Wait()

	for j := range results {
		res := <-results[j]
		if res.err != nil {
			// Result channels are buffered, so the remaining workers finish
			// without a drain; the deferred Wait joins them.
			return res.err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, run := range res.runs {
			for i := range run.scans {
				var o *enrich.Origin
				if run.origins != nil {
					o = &run.origins[i]
				}
				emit(&run.scans[i], o)
			}
		}
	}
	return nil
}

// fail converts a block-local failure into either a query-aborting error
// (the default) or, under WithSkipCorrupt, a counted skip.
func (r *Reader) fail(err error) blockScans {
	if r.skipCorrupt {
		r.corrupt.Add(1)
		r.mCorrupt.Inc()
		return blockScans{corrupt: true}
	}
	return blockScans{err: err}
}

// blockScratch bundles the per-block scratch a decode cycles through: the
// compressed read buffer, the decompressed raw buffer, a reusable-state
// DEFLATE decoder (internal/inflate keeps its Huffman tables across blocks,
// so a warmed scratch decompresses without allocating — compress/flate
// rebuilds its link tables per stream even when Reset) and the origin-string
// table. Idle units wait in scratchFree; everything decodeRecord keeps is
// decoded or copied into the query's own slabs (ports, payload) or is an
// immutable interned string, so nothing decoded from a scratch — including
// the scans a CatalogView query hands out — aliases it after release. That
// invariant is pinned by TestPoolPoisoning.
type blockScratch struct {
	comp    []byte
	raw     []byte
	inf     inflate.Decoder
	strings interner
}

// scratchFree is the free list of idle scratches, one per processor at most:
// a burst of concurrent queries allocates the extra units it needs and drops
// them afterwards. It is a plain bounded list rather than a sync.Pool because
// the collector empties a pool, and a scratch is ~0.5 MB of buffers and
// tables: what a query allocated then depended on where the last collection
// fell, not on the query.
var scratchFree = make(chan *blockScratch, runtime.GOMAXPROCS(0))

func getScratch() *blockScratch {
	select {
	case s := <-scratchFree:
		return s
	default:
		return new(blockScratch)
	}
}

// poisonScratch, when set (by tests only), scribbles every buffer of a read
// scratch or a write-pipeline unit as it returns to its free list, so that
// anything still aliasing its memory fails loudly instead of going stale.
var poisonScratch atomic.Bool

// poison scribbles bufs, to their capacity, when poisonScratch is set.
func poison(bufs ...[]byte) {
	if !poisonScratch.Load() {
		return
	}
	for _, b := range bufs {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xdb
		}
	}
}

// release returns the scratch to the free list, or to the collector when the
// list is full.
func (s *blockScratch) release() {
	poison(s.comp, s.raw)
	select {
	case scratchFree <- s:
	default:
	}
}

// scratchCap rounds a scratch buffer's size up to the next 64 KiB. Blocks
// differ in length by a record or so; sized exactly, a buffer would be
// reallocated for every block a little longer than the longest before it.
func scratchCap(n int) int { return (n + 1<<16 - 1) &^ (1<<16 - 1) }

// compressedBlock reads block z's DEFLATE stream into s.comp and returns it
// with the stored CRC it was verified against; valid until s.release.
func (r *Reader) compressedBlock(z *ZoneMap, s *blockScratch) (comp []byte, sum uint32, err error) {
	n := blockCRCLen + int(z.CompressedLen)
	if cap(s.comp) < n {
		s.comp = make([]byte, scratchCap(n))
	}
	blk := s.comp[:n]
	if _, err := r.ra.ReadAt(blk, int64(z.Offset)); err != nil {
		return nil, 0, fmt.Errorf("archive: block at %d: %w", z.Offset, err)
	}
	comp, sum = blk[blockCRCLen:], binary.BigEndian.Uint32(blk[:blockCRCLen])
	if crc32.ChecksumIEEE(comp) != sum {
		return nil, 0, fmt.Errorf("%w: block at %d: checksum mismatch", ErrCorrupt, z.Offset)
	}
	return comp, sum, nil
}

// readBlock fills s with block z: compressedBlock's bytes in s.comp, the
// decompressed record bytes in s.raw. Both are valid until s.release.
func (r *Reader) readBlock(z *ZoneMap, s *blockScratch) error {
	comp, _, err := r.compressedBlock(z, s)
	if err != nil {
		return err
	}
	// Capacity hints come from the (checksummed but still untrusted) index;
	// clamp them so a crafted file cannot force absurd allocations before
	// the decode fails.
	rawCap := int(z.RawLen)
	if rawCap > 4*DefaultBlockBytes {
		rawCap = 4 * DefaultBlockBytes
	}
	sp := obs.StartSpan(r.mDecompress)
	raw := s.raw[:0]
	if cap(raw) < rawCap {
		raw = make([]byte, 0, scratchCap(rawCap))
	}
	// Decompress with the output capped at RawLen+1 bytes (like the io.Copy
	// + LimitReader regime this replaces): one extra byte proves an overlong
	// block without letting a crafted stream balloon past the clamp.
	raw, err = s.inf.AppendDecode(raw, comp, int(z.RawLen)+1)
	s.raw = raw
	if err != nil {
		return fmt.Errorf("%w: block at %d: %v", ErrCorrupt, z.Offset, err)
	}
	sp.End()
	if uint32(len(raw)) != z.RawLen {
		return fmt.Errorf("%w: block at %d: raw length %d != %d",
			ErrCorrupt, z.Offset, len(raw), z.RawLen)
	}
	r.mBytes.Add(uint64(len(raw)))
	return nil
}

// RawBlock reads, checksums and decompresses block i, handing the raw record
// bytes to visit. The slice is pool-owned scratch, valid only for the
// duration of the call — visit must copy anything it keeps. It exposes the
// pooled read path without the record decode on top, for the benchmark's
// stage ledger and the alloctest budgets.
func (r *Reader) RawBlock(i int, visit func(raw []byte) error) error {
	if i < 0 || i >= len(r.index) {
		return fmt.Errorf("archive: block %d out of range [0,%d)", i, len(r.index))
	}
	s := getScratch()
	defer s.release()
	if err := r.readBlock(&r.index[i], s); err != nil {
		return err
	}
	return visit(s.raw)
}

// decodeBlock reads, checksums, decompresses and decodes one block into sl,
// keeping only scans matching p. Read scratch comes from (and returns to) the
// block pool; a record decodes in place into the slabs' tail slot and only a
// match commits the slot, so memory is consumed per kept record, not per
// record examined.
func (r *Reader) decodeBlock(z *ZoneMap, p Predicate, sl *slabs) blockScans {
	s := getScratch()
	defer s.release()
	if err := r.readBlock(z, s); err != nil {
		return r.fail(err)
	}
	raw := s.raw

	// A record is at least 26 bytes, so the block bounds the scan count.
	if uint64(z.Scans) > uint64(len(raw))/26+1 {
		return r.fail(fmt.Errorf("%w: block at %d: %d scans in %d bytes",
			ErrCorrupt, z.Offset, z.Scans, len(raw)))
	}
	dec := recordDecoder{origins: r.origins, sl: sl, in: &s.strings}
	withOrigin := r.origins && sl.fields&FieldOrigin != 0
	var out blockScans
	// The open run is the slab chunk's tail from start; it closes when the
	// chunk fills and at the end of the block.
	start := len(sl.scans.chunk)
	var prev int64
	var matched uint64
	at := 0 // index of the next record in raw
	for i := uint32(0); i < z.Scans; i++ {
		if len(sl.scans.chunk) == cap(sl.scans.chunk) {
			out.runs = sl.appendRun(out.runs, start, withOrigin)
			start = 0 // the take below opens a new chunk
		}
		sc := &sl.scans.take(1)[0]
		var o *enrich.Origin
		if withOrigin {
			o = &sl.origins.take(1)[0]
		}
		var err error
		at, prev, err = dec.decodeRecord(raw, at, sc, o, prev)
		if err != nil {
			return r.fail(fmt.Errorf("archive: block at %d, record %d: %w", z.Offset, i, err))
		}
		if !p.Match(sc, o) {
			continue
		}
		matched++
		sl.scans.keep(1)
		if withOrigin {
			sl.origins.keep(1)
		}
		sl.ports.keep(len(sc.Ports))
		sl.payload.keep(len(sc.Payload))
	}
	if at != len(raw) {
		return r.fail(fmt.Errorf("%w: block at %d: %d trailing bytes", ErrCorrupt, z.Offset, len(raw)-at))
	}
	out.runs = sl.appendRun(out.runs, start, withOrigin)
	r.mDecoded.Add(uint64(z.Scans))
	r.mMatched.Add(matched)
	return out
}
