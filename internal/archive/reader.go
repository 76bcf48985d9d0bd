package archive

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/inflate"
	"github.com/synscan/synscan/internal/obs"
)

// Reader queries an archive file. It parses the footer index once at open;
// Query then reads only the blocks a Predicate cannot prune, and of those only
// the strips it names, on a worker pool, and streams decoded scans to the
// caller in file order.
// A Reader is safe for concurrent Query calls (each call owns its pool).
type Reader struct {
	ra          io.ReaderAt
	size        int64
	telSize     int
	origins     bool
	skipCorrupt bool // openSegment sets it from CatalogConfig.SkipCorrupt
	index       []ZoneMap
	total       uint64
	workers     int       // SetWorkers' bound; 0: GOMAXPROCS as each Query starts
	closer      io.Closer // the segment file, when openSegment opened it
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

// NewReader opens an archive over any random-access byte source. The reader
// is strict: a damaged block fails the query. A store's segments open through
// its Catalog, whose CatalogConfig.SkipCorrupt makes them skip-corrupt.
func NewReader(ra io.ReaderAt, size int64) (*Reader, error) {
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
		return nil, fmt.Errorf("%w %d (this build reads version %d only; re-create with syneval -archive-out / syningest)",
			ErrBadVersion, hdr[4], version)
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

// Close releases the underlying file when the reader is a store's segment.
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
// the default is GOMAXPROCS, read as each Query starts, as rowsFree reads it
// for its bound). Not safe concurrently with Query.
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
// skip-corrupt reader, cumulative across Query calls (a block damaged on
// disk is counted once per query that decodes it).
func (r *Reader) CorruptBlocks() uint64 { return r.corrupt.Load() }

// Query streams every scan matching p to emit, in file order (block order,
// record order within a block — i.e. the order scans were archived in),
// under full predicate pushdown: blocks whose zone map p.MatchBlock excludes
// are skipped without being read, surviving blocks are decoded on a
// worker pool while emit runs on the calling goroutine, and p.Match drops
// non-matching records before they reach emit. It is the one way to scan an
// archive: All is the Predicate for everything, internal/query compiles its
// ASTs into selective ones.
//
// emit is lent each row: the scan and origin it receives, with the scan's
// Ports and Payload, are valid only until it returns, as with
// bufio.Scanner.Bytes — the next row is loaded into the same memory, and a
// drained block's columns go on to decode other blocks. A consumer that keeps
// a row copies it (core.Scan.Clone, and the origin by value). emit must not
// write to the row it is lent: the row is set to blank once per query, and a
// load rewrites only the projected fields. Only the strips
// p.Fields names are read: the other fields of a scan are zero, Scan.Ports
// and Scan.Payload nil, and the origin is nil when the archive carries none
// (see HasOrigins) or p.Fields names no origin strip.
//
// The query stops decoding and returns ctx.Err() as soon as the context is
// done, between blocks. Damaged blocks abort with an error unless the reader
// is skip-corrupt (see CorruptBlocks); either way a block is
// decoded and checked whole before any of its rows reach emit.
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
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(live))

	// Ordered fan-out under a window: workers decode any block the caller has
	// admitted, the caller drains results strictly in block order — archived
	// order is preserved end to end — and admits one more block for each one
	// it takes. Workers therefore run at most ahead blocks in front of the
	// block being emitted: a consumer slower than the decoders holds that many
	// decoded blocks, ahead+1 row sets with the one it drains, not the archive.
	ahead := 2 * workers
	// Block j reports on results[j%ahead]: the slot's previous user, block
	// j-ahead, was taken before j was admitted.
	results := make([]chan *rows, ahead)
	for i := range results {
		results[i] = make(chan *rows, 1)
	}
	jobs := make(chan int, ahead) // holds the whole window: admitting never blocks
	admitted := 0
	admit := func() {
		if admitted < len(live) {
			jobs <- admitted
			admitted++
		}
	}
	for i := 0; i < ahead; i++ {
		admit()
	}

	fields := r.projection(p)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				rw := getRows(fields)
				if rw.err = ctx.Err(); rw.err == nil {
					rw.err = r.decodeBlock(&r.index[live[j]], p, rw)
				}
				results[j%ahead] <- rw
			}
		}()
	}
	// On every return the window closes and the workers are joined; a result
	// slot takes its one send without a receiver.
	defer wg.Wait()
	defer close(jobs)

	// The one row every emit is lent, set once to what unprojected parts read
	// as: load writes every projected part of each row, and emit writes none.
	// Under poisonScratch the row is set to blank before each load as well,
	// checked after each emit against a load into blanks of its own — an
	// emit writing into the blank port list writes into blankScan's — and
	// scribbled.
	sc, o := new(core.Scan), new(enrich.Origin)
	blankScan, blankOrigin := blanks(fields)
	*sc, *o = blankScan, blankOrigin
	poisoning := poisonScratch.Load()
	var spentScan, checkScan core.Scan
	var spentOrigin, checkOrigin enrich.Origin
	if poisoning {
		spentScan, spentOrigin = blanks(0)
		checkScan, checkOrigin = blanks(fields)
	}
	op := o
	if fields&FieldOrigin == 0 {
		op = nil
	}
	for j := range live {
		rw := <-results[j%ahead]
		if rw.err != nil {
			return rw.err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		admit()
		for i := 0; i < rw.n; i++ {
			if poisoning {
				*sc, *o = blankScan, blankOrigin
			}
			rw.load(i, sc, op, fields)
			emit(sc, op)
			if poisoning {
				want, wantOrigin := checkScan, checkOrigin
				rw.load(i, &want, &wantOrigin, fields)
				if !reflect.DeepEqual(*sc, want) || *o != wantOrigin {
					panic(fmt.Sprintf("archive: emit wrote to its lent row (projecting {%v}): %+v %+v, loaded as %+v %+v",
						fields, *sc, *o, want, wantOrigin))
				}
				*sc, *o = spentScan, spentOrigin
			}
		}
		rw.release()
	}
	return nil
}

// projection is the set of strips a query with p decodes: what p names, less
// the origin strips when the archive carries none.
func (r *Reader) projection(p Predicate) Fields {
	fields := p.Fields()
	if !r.origins {
		fields &^= FieldOrigin
	}
	return fields
}

// fail converts a block-local failure into either a query-aborting error
// (the default) or, on a skip-corrupt reader, a counted skip. Either way rw is
// emptied: nothing of a damaged block is emitted.
func (r *Reader) fail(err error, rw *rows) error {
	rw.reset(rw.fields)
	if r.skipCorrupt {
		r.corrupt.Add(1)
		r.mCorrupt.Inc()
		return nil
	}
	return err
}

// blockScratch bundles the per-block scratch a decode cycles through: the
// read buffer for the stored block, the buffer its strips inflate into, a
// reusable-state DEFLATE decoder (internal/inflate keeps its Huffman tables
// across streams, so a warmed scratch decompresses without allocating —
// compress/flate rebuilds its link tables per stream even when Reset), the
// origin-string table, the block's two dictionaries, and the columns and the
// record a predicate's filter runs over. Those columns hold a run of
// filterRun records of the strips filters read and are never dropped, so a
// scratch, one per processor, costs the same across queries of any
// projection and blocks of any size.
// Idle units wait in scratchFree; everything the block decoder keeps is
// decoded or copied into the block's rows (ports, payload) or is an immutable
// interned string, so nothing in a row set aliases a scratch after its
// release. That invariant is pinned by TestPoolPoisoning.
type blockScratch struct {
	comp      []byte
	raw       []byte
	strips    [numStrips][]byte // views of raw: the strips readBlock inflated, empty otherwise
	inf       inflate.Decoder
	strings   interner
	countries []string
	orgs      []orgEntry
	cols      rows    // the filter's strips, a run of records' parts: never dropped
	keep      []int32 // the records the filter kept
	sc        core.Scan
	o         enrich.Origin
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
		fill(b, 0xdb)
	}
}

// release returns the scratch to the free list, or to the collector when the
// list is full. Under poisonScratch its buffers and filter columns are
// scribbled first.
func (s *blockScratch) release() {
	poison(s.comp, s.raw)
	if poisonScratch.Load() {
		s.cols.poison()
	}
	s.sc, s.o = core.Scan{}, enrich.Origin{}
	select {
	case scratchFree <- s:
	default:
	}
}

// scratchCap rounds a scratch buffer's size up to the next 64 KiB. Blocks
// differ in length by a record or so; sized exactly, a buffer would be
// reallocated for every block a little longer than the longest before it.
func scratchCap(n int) int { return (n + 1<<16 - 1) &^ (1<<16 - 1) }

// compressedBlock reads block z's stored payload — the strip directory and the
// strips' DEFLATE streams — into s.comp and returns it with the stored CRC it
// was verified against; valid until s.release.
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

// maxInflation is the most a DEFLATE stream can expand: 258 bytes for each
// two bits of a run of maximal matches (RFC 1951).
const maxInflation = 1032

// readBlock fills s with the strips of block z that fields names: the stored
// payload in s.comp, the named strips inflated back to back into s.raw and
// viewed through s.strips; a strip outside fields is not inflated and its
// view is empty. Valid until s.release.
func (r *Reader) readBlock(z *ZoneMap, s *blockScratch, fields Fields) error {
	comp, _, err := r.compressedBlock(z, s)
	if err != nil {
		return err
	}
	if len(comp) < dirLen {
		return fmt.Errorf("%w: block at %d: %d bytes do not hold a strip directory", ErrCorrupt, z.Offset, len(comp))
	}
	// The directory must account for every stored byte and for RawLen, and no
	// strip may claim more than its stream could inflate to: with that, RawLen
	// — which bounds the record count and the allocation below — is tied to
	// bytes the file really holds, whichever strips are inflated.
	entry := func(i int) (stored, raw int) {
		e := comp[8*i:]
		return int(binary.BigEndian.Uint32(e)), int(binary.BigEndian.Uint32(e[4:]))
	}
	var storedSum, rawSum, need uint64
	for i := 0; i < numStrips; i++ {
		stored, raw := entry(i)
		if uint64(raw) > maxInflation*uint64(stored) {
			return fmt.Errorf("%w: block at %d: strip %s: %d bytes cannot inflate to %d",
				ErrCorrupt, z.Offset, stripNames[i], stored, raw)
		}
		storedSum += uint64(stored)
		rawSum += uint64(raw)
		if fields&(1<<i) != 0 {
			need += uint64(raw)
		}
	}
	if storedSum != uint64(len(comp)-dirLen) || rawSum != uint64(z.RawLen) {
		return fmt.Errorf("%w: block at %d: directory lists %d stored and %d raw bytes, the index %d and %d",
			ErrCorrupt, z.Offset, storedSum, rawSum, len(comp)-dirLen, z.RawLen)
	}
	// The capacity hint comes from the (checksummed but still untrusted)
	// file; clamp it so a crafted one cannot force absurd allocations before
	// the decode fails.
	rawCap := int(min(need, 4*DefaultBlockBytes))
	sp := obs.StartSpan(r.mDecompress)
	raw := s.raw[:0]
	if cap(raw) < rawCap {
		raw = make([]byte, 0, scratchCap(rawCap))
	}
	var ends [numStrips]int
	off := dirLen
	for i := 0; i < numStrips; i++ {
		stored, want := entry(i)
		if fields&(1<<i) != 0 && want > 0 {
			// The output is capped one byte past the directory's length: the
			// extra byte proves an overlong strip without letting a crafted
			// stream balloon past the clamp.
			from := len(raw)
			raw, err = s.inf.AppendDecode(raw, comp[off:off+stored], from+want+1)
			if err == nil && len(raw)-from != want {
				err = fmt.Errorf("inflates to %d bytes, directory says %d", len(raw)-from, want)
			}
			if err != nil {
				s.raw = raw
				return fmt.Errorf("%w: block at %d: strip %s: %v", ErrCorrupt, z.Offset, stripNames[i], err)
			}
		}
		ends[i] = len(raw)
		off += stored
	}
	sp.End()
	s.raw = raw
	from := 0
	for i, end := range ends {
		s.strips[i] = raw[from:end:end]
		from = end
	}
	r.mBytes.Add(uint64(len(raw)))
	return nil
}

// RawBlock reads, checksums and decompresses block i, handing every strip's
// inflated bytes, back to back in directory order, to visit. The slice is
// pool-owned scratch, valid only for the duration of the call — visit must
// copy anything it keeps. It exposes the pooled read path without the record
// decode on top, for the benchmark's stage ledger and the alloctest budgets.
func (r *Reader) RawBlock(i int, visit func(raw []byte) error) error {
	if i < 0 || i >= len(r.index) {
		return fmt.Errorf("archive: block %d out of range [0,%d)", i, len(r.index))
	}
	s := getScratch()
	defer s.release()
	if err := r.readBlock(&r.index[i], s, AllFields); err != nil {
		return err
	}
	return visit(s.raw)
}

// blanks returns what a record's unprojected parts read as: zero. Under
// poisonScratch they read as values no archive holds instead, so that a
// consumer reading a part its predicate did not project stands out.
func blanks(fields Fields) (sc core.Scan, o enrich.Origin) {
	if !poisonScratch.Load() {
		return sc, o
	}
	const p64 = 0x5bdbdbdbdbdbdbdb
	if fields&FieldStart == 0 {
		sc.Start = p64
	}
	if fields&FieldDuration == 0 {
		sc.End = p64 >> 1
	}
	if fields&FieldSrc == 0 {
		sc.Src = p64 >> 32
	}
	if fields&FieldPackets == 0 {
		sc.Packets = p64
	}
	if fields&FieldDsts == 0 {
		sc.DistinctDsts = p64 >> 33
	}
	if fields&FieldPorts == 0 {
		sc.Ports = []uint16{0xdbdb, 0xdbdc, 0xdbdd}
	}
	if fields&FieldTool == 0 {
		sc.Tool, sc.Qualified = 0xdb, true
	}
	if fields&FieldRate == 0 {
		sc.RatePPS = math.Float64frombits(p64)
	}
	if fields&FieldCoverage == 0 {
		sc.Coverage = math.Float64frombits(p64)
	}
	if fields&FieldPhase == 0 {
		sc.TwoPhase, sc.ISN = true, 0xdb
		sc.LinkedDsts, sc.HandshakePackets, sc.PayloadBytes = p64>>33, p64, p64
	}
	if fields&(FieldPackets|FieldPhase) != FieldPackets|FieldPhase {
		sc.ScoutPackets = p64
	}
	if fields&FieldPayload == 0 {
		sc.Payload = []byte{0xdb, 0xdb}
	}
	if fields&FieldCountry == 0 {
		o.Country = "\xdb\xdb"
	}
	if fields&FieldASN == 0 {
		o.ASN, o.Type = p64>>32, 0xdb
	}
	if fields&FieldOrg == 0 {
		o.OrgID, o.OrgName = 0x5bdb, "\xdb\xdb\xdb"
	}
	return sc, o
}

// filterRun is how many records a filter's strips decode, and the filter
// runs over, at a time: what bounds the scratch's columns, whatever a block
// holds.
const filterRun = 1024

// decodeBlock reads, checksums and decodes block z into rw, which is empty,
// inflating only the strips rw.fields names and decoding them a strip at a
// time. The strips p's filter reads (p.MatchFields) decode first, a run of
// records at a time, into the scratch's columns; p.Match runs over them
// record by record, and rw gets the matches' parts of them. Every other strip
// then decodes straight into rw, walked over every record and keeping the
// matches': a set grows with what a block keeps, not with what it holds. A
// filter that reads no strip answers for every record at once, and a
// filter-less decode sizes each column to the block's records up front. Read
// scratch comes from (and returns to) the block pool. A failure leaves rw
// without rows.
func (r *Reader) decodeBlock(z *ZoneMap, p Predicate, rw *rows) error {
	s := getScratch()
	defer s.release()
	fields := rw.fields
	if err := r.readBlock(z, s, fields); err != nil {
		return r.fail(err, rw)
	}
	// Every record holds at least minRecordBytes, which bounds the scan count
	// whatever is projected.
	if uint64(z.Scans)*minRecordBytes > uint64(z.RawLen) {
		return r.fail(fmt.Errorf("%w: block at %d: %d scans in %d bytes",
			ErrCorrupt, z.Offset, z.Scans, z.RawLen), rw)
	}
	n := int(z.Scans)
	dec := newBlockDecoder(s, n)
	corrupt := func(i int) error {
		return r.fail(fmt.Errorf("%w: block at %d: strip %s does not hold its %d records",
			ErrCorrupt, z.Offset, stripNames[i], n), rw)
	}
	origin := fields&FieldOrigin != 0
	sel, early := selection{all: true}, Fields(0)
	if filter := p.MatchFields() & fields; filter != 0 {
		// A record's handshake packets are checked against its packets in
		// the runs, where both strips are at hand for kept and dropped
		// records alike.
		early = filter
		if fields&(FieldPackets|FieldPhase) == FieldPackets|FieldPhase {
			early |= FieldPackets | FieldPhase
		}
		s.keep = s.keep[:0]
		for from := 0; from < n; from += filterRun {
			to := min(from+filterRun, n)
			s.cols.clear(early)
			var packets []uint64
			for i := 0; i < numStrips; i++ {
				if early&(1<<i) == 0 {
					continue
				}
				if !dec.strip(i, &s.cols, sel, packets, from, to) {
					return corrupt(i)
				}
				if i == stripPackets {
					packets = s.cols.packets
				}
			}
			k := len(s.keep)
			s.match(p, from, to, filter, origin)
			rw.gather(&s.cols, s.keep[k:], from, early)
		}
		sel = selection{keep: s.keep}
	} else if !s.matchBlank(p, origin) {
		sel = selection{}
	}
	var packets []uint64 // every record's packet count, once decoded: the phase strip's check
	for i := 0; i < numStrips; i++ {
		if fields&^early&(1<<i) == 0 {
			continue
		}
		if !dec.strip(i, rw, sel, packets, 0, n) {
			return corrupt(i)
		}
		if i == stripPackets && sel.all {
			packets = rw.packets
		}
	}
	rw.n = n
	if !sel.all {
		rw.n = len(sel.keep)
	}
	r.mDecoded.Add(uint64(z.Scans))
	r.mMatched.Add(uint64(rw.n))
	return nil
}

// match runs p over records from to to, whose filter strips — those in
// filter — the scratch's columns hold, and appends the numbers of those it
// keeps to s.keep. Match sees each record in the scratch's Scan and, when
// origin, Origin: the filter's parts loaded, every other part blank.
func (s *blockScratch) match(p Predicate, from, to int, filter Fields, origin bool) {
	sc, o := &s.sc, &s.o
	*sc, *o = blanks(filter)
	if !origin {
		o = nil
	}
	for i := from; i < to; i++ {
		s.cols.load(i-from, sc, o, filter)
		if p.Match(sc, o) {
			s.keep = append(s.keep, int32(i))
		}
	}
}

// matchBlank is p's answer for every record of a block when its filter reads
// no strip: what Match says of a record all of whose parts are blank.
func (s *blockScratch) matchBlank(p Predicate, origin bool) bool {
	sc, o := &s.sc, &s.o
	*sc, *o = blanks(0)
	if !origin {
		o = nil
	}
	return p.Match(sc, o)
}
