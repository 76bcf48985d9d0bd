package archive

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/obs"
)

// WriterConfig parameterizes NewWriter. The zero value is a valid
// origin-less archive with the default block bound.
type WriterConfig struct {
	// TelescopeSize is recorded in the header so readers can extrapolate
	// without out-of-band knowledge (mirrors the flowlog spool header).
	TelescopeSize int
	// Origins records each scan's enrichment Origin alongside it. Use on
	// the simulation path (which owns the registry); the replay path has no
	// origins to store.
	Origins bool
	// BlockBytes bounds a block's uncompressed payload (default
	// DefaultBlockBytes). Smaller blocks sharpen zone-map pruning, larger
	// ones compress better.
	BlockBytes int
	// Metrics, when non-nil, counts blocks/bytes/scans written and times
	// block compression.
	Metrics *obs.Registry
}

// Writer spools scans into an archive. It works on any io.Writer — blocks
// are appended and the index is written at Close, so no seeking is needed.
// Not safe for concurrent use; both detector variants emit scans from a
// single goroutine.
//
// A full block is deflated on a compressor goroutine while Add keeps encoding
// into a second buffer. Blocks reach the stream in order, at points the
// record stream alone decides — block k is collected when block k+1 has been
// handed off, everything at Close — so the same scans give the same bytes
// whatever the scheduler does. A write or compression error is sticky: the
// next Add, or Close, returns it.
type Writer struct {
	w        *bufio.Writer
	cfg      WriterConfig
	off      uint64 // bytes written so far (= next block offset)
	open     *block // the block being encoded into
	inflight *block // handed off and not yet collected, nil when none
	spare    *block // a collected unit waiting to be the next open block
	years    YearCache
	index    []ZoneMap
	crc      [blockCRCLen]byte // writeBlock's scratch: a local would escape through Write
	closed   bool
	closeErr error // Close's result, replayed by every later Close
	err      error

	nScans             uint64
	minStart, maxStart int64
	moved, movedBytes  uint64 // blocks that came in through appendBlock

	mScans, mBlocks, mRaw, mCompressed *obs.Counter
	mStored, mDeflated                 *obs.Counter // strips of the blocks this writer encoded, by stream kind
	mCompressNS, mWaitNS               *obs.Histogram
}

// block is one unit of the write pipeline: a block's strips and zone map
// while it is open, the DEFLATE state and output that make it a stored payload
// once handed off. From go b.run() to the receive from done the compressor
// goroutine owns it, at every other time its Writer.
type block struct {
	enc  blockEncoder
	zone ZoneMap
	fw   *flate.Writer // ≈ 0.8 MB of hash chains and window, reused by Reset
	out  bytes.Buffer  // the stored payload: strip directory, then one stream per strip
	err  error
	ns   *obs.Histogram // the owning Writer's archive.compress_ns
	run  func()         // compress, bound once: go b.run() allocates nothing
	done chan struct{}  // buffered, so an abandoned Writer's compressor still exits

	stored, deflated uint64 // strips compress wrote as stored blocks and as a deflated stream
}

// flateFree is the process-wide free list of idle DEFLATE states, bounded like
// scratchFree and for its reason. It keeps one: writing segment after segment
// costs no flate.NewWriter each, and an idle process holds 0.8 MB, not the
// buffers too — every retained byte is about two of a quiet process's peak.
var flateFree = make(chan *flate.Writer, 1)

// newBlock returns an empty unit for blocks of blockBytes. The strip buffers
// grow to what their share of a block turns out to be (blockEncoder.grow).
func newBlock(blockBytes int) *block {
	b := &block{done: make(chan struct{}, 1)}
	b.enc.blockBytes = blockBytes
	b.out.Grow(blockBytes / 2) // most blocks deflate to less: one allocation, not a doubling series
	b.run = b.compress
	b.zone.reset()
	select {
	case b.fw = <-flateFree:
	default:
		b.fw, _ = flate.NewWriter(io.Discard, flate.DefaultCompression) // errors on an invalid level only
	}
	return b
}

// release gives an idle unit's DEFLATE state back to the free list, or to
// the collector when the list is full, and its buffers to the collector.
func (b *block) release() {
	if b == nil {
		return
	}
	poison(b.out.Bytes())
	poison(b.enc.strips[:]...)
	select {
	case flateFree <- b.fw:
	default:
	}
	b.fw = nil
}

// minSaving is the writer's one rule about a strip's stream: the deflated
// stream is kept only when it is at least one part in minSaving shorter than
// the strip; otherwise the strip goes out as DEFLATE stored blocks, which a
// reader copies instead of decoding. A strip near its entropy (start's
// nanosecond deltas deflate by 7 %, src by under 1 %) costs a reader the
// literal-only worst case of inflate, 3 to 5 ns a byte, to win back almost
// nothing; one that deflates at all well deflates by far more than an eighth.
// So a block is never more than an eighth of a strip, plus the stored framing,
// larger than its smallest encoding.
const minSaving = 8

// maxStored is the most one DEFLATE stored block holds (RFC 1951 §3.2.4).
const maxStored = 1<<16 - 1

// compress encodes the strips into b.out — each a DEFLATE stream of its own,
// deflated or stored by the minSaving rule, an empty strip none at all, behind
// the directory of their lengths — and signals done, on a goroutine of its own
// per block: nothing is left to outlive an abandoned Writer.
func (b *block) compress() {
	sp := obs.StartSpan(b.ns)
	var dir [dirLen]byte
	b.out.Reset()
	b.out.Write(dir[:]) // filled in below, once the lengths are known
	b.stored, b.deflated = 0, 0
	for i, strip := range b.enc.strips {
		if len(strip) == 0 {
			continue
		}
		at := b.out.Len()
		b.fw.Reset(&b.out)
		if _, b.err = b.fw.Write(strip); b.err == nil {
			b.err = b.fw.Close()
		}
		if b.err != nil {
			break
		}
		if b.out.Len()-at <= len(strip)-len(strip)/minSaving {
			b.deflated++
		} else {
			b.stored++
			b.out.Truncate(at)
			for rest := strip; len(rest) > 0; {
				n := min(len(rest), maxStored)
				final := byte(0) // BFINAL in bit 0, BTYPE 00 above it, padding to the byte
				if n == len(rest) {
					final = 1
				}
				b.out.Write([]byte{final, byte(n), byte(n >> 8), ^byte(n), ^byte(n >> 8)})
				b.out.Write(rest[:n])
				rest = rest[n:]
			}
		}
		binary.BigEndian.PutUint32(dir[8*i:], uint32(b.out.Len()-at))
		binary.BigEndian.PutUint32(dir[8*i+4:], uint32(len(strip)))
	}
	copy(b.out.Bytes(), dir[:])
	sp.End()
	b.done <- struct{}{}
}

// NewWriter writes the header and returns an archive writer.
func NewWriter(w io.Writer, cfg WriterConfig) (*Writer, error) {
	if cfg.BlockBytes <= 0 {
		cfg.BlockBytes = DefaultBlockBytes
	}
	hdr, err := header(cfg.TelescopeSize, cfg.Origins)
	if err != nil {
		return nil, err
	}
	// The buffer joins the header and the CRC words to the streams they
	// precede; a block's stream is far larger and passes it by.
	bw := bufio.NewWriterSize(w, 1<<12)
	if _, err := bw.Write(hdr); err != nil {
		return nil, err
	}
	return &Writer{
		w:    bw,
		cfg:  cfg,
		off:  headerLen,
		open: newBlock(cfg.BlockBytes),

		mScans:      cfg.Metrics.Counter("archive.scans.written"),
		mBlocks:     cfg.Metrics.Counter("archive.blocks.written"),
		mRaw:        cfg.Metrics.Counter("archive.bytes.raw"),
		mCompressed: cfg.Metrics.Counter("archive.bytes.compressed"),
		mStored:     cfg.Metrics.Counter("archive.strips.stored"),
		mDeflated:   cfg.Metrics.Counter("archive.strips.deflated"),
		mCompressNS: cfg.Metrics.Histogram("archive.compress_ns"),
		mWaitNS:     cfg.Metrics.Histogram("archive.compress_wait_ns"),
	}, nil
}

// Add appends one scan. With WriterConfig.Origins the scan's origin must be
// supplied via AddWithOrigin instead.
func (w *Writer) Add(sc *core.Scan) error {
	if w.cfg.Origins {
		return fmt.Errorf("archive: Add on an origins archive (use AddWithOrigin)")
	}
	return w.add(sc, nil)
}

// AddWithOrigin appends one scan with its enrichment origin. Valid only on
// an archive created with WriterConfig.Origins.
func (w *Writer) AddWithOrigin(sc *core.Scan, o enrich.Origin) error {
	if !w.cfg.Origins {
		return ErrNoOrigins
	}
	return w.add(sc, &o)
}

func (w *Writer) add(sc *core.Scan, o *enrich.Origin) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("archive: Add after Close")
	}
	b := w.open
	rawLen := b.enc.add(sc, o)
	b.zone.observe(sc, w.years.Year(sc.Start))
	if w.nScans == 0 || sc.Start < w.minStart {
		w.minStart = sc.Start
	}
	if w.nScans == 0 || sc.Start > w.maxStart {
		w.maxStart = sc.Start
	}
	w.nScans++
	w.mScans.Inc()
	if rawLen >= w.cfg.BlockBytes {
		return w.flushBlock()
	}
	return nil
}

// flushBlock hands off the open block, if it holds anything, and opens another.
func (w *Writer) flushBlock() error {
	w.handOff()
	if w.open == nil {
		if w.spare == nil {
			// Taken only now: a Writer that never fills a block gets by on one.
			w.spare = newBlock(w.cfg.BlockBytes)
		}
		w.open, w.spare = w.spare, nil
		w.open.enc.reset()
		w.open.zone.reset()
	}
	return w.err
}

// handOff gives the open block, if it holds anything, to a compressor
// goroutine and then collects the block handed off before it — in that order,
// so that two blocks deflate at once while the caller waits — leaving none
// open. What fails is kept in w.err.
func (w *Writer) handOff() {
	b := w.open
	if b.zone.Scans == 0 {
		return
	}
	b.ns = w.mCompressNS
	go b.run()
	w.collect()
	w.open, w.inflight = nil, b
}

// collect waits for the block in flight, if any, and writes it: CRC word,
// stream, index entry, offset. Its unit becomes the spare.
func (w *Writer) collect() error {
	b := w.inflight
	if b == nil {
		return w.err
	}
	w.inflight, w.spare = nil, b
	sp := obs.StartSpan(w.mWaitNS)
	<-b.done
	sp.End()
	if w.err == nil {
		w.err = b.err
	}
	if w.err != nil {
		return w.err
	}
	w.mStored.Add(b.stored)
	w.mDeflated.Add(b.deflated)
	comp := b.out.Bytes()
	b.zone.CompressedLen = uint32(len(comp))
	b.zone.RawLen = uint32(b.enc.rawLen())
	return w.writeBlock(b.zone, crc32.ChecksumIEEE(comp), comp)
}

// writeBlock appends one stored block — CRC word, then payload — and its
// zone map, whose Offset is re-based to the CRC word's new place.
func (w *Writer) writeBlock(z ZoneMap, sum uint32, comp []byte) error {
	z.Offset = w.off
	binary.BigEndian.PutUint32(w.crc[:], sum)
	w.w.Write(w.crc[:]) // a bufio.Writer's error is sticky: the next Write returns it
	if _, err := w.w.Write(comp); err != nil {
		w.err = err
		return err
	}
	w.off += blockCRCLen + uint64(len(comp))
	w.index = append(w.index, z)
	w.mBlocks.Inc()
	w.mRaw.Add(uint64(z.RawLen))
	w.mCompressed.Add(uint64(z.CompressedLen))
	return nil
}

// appendBlock moves in a stored block of another archive with the same
// record layout: comp is its payload, sum the CRC the caller checked it
// against, z its zone map there. The open block is closed first, so record
// order is call order.
func (w *Writer) appendBlock(z ZoneMap, sum uint32, comp []byte) error {
	w.flushBlock() // its error is sticky: collect returns it
	if err := w.collect(); err != nil {
		return err
	}
	if w.nScans == 0 {
		w.minStart, w.maxStart = z.MinStart, z.MaxStart
	}
	w.minStart, w.maxStart = min(w.minStart, z.MinStart), max(w.maxStart, z.MaxStart)
	w.nScans += uint64(z.Scans)
	w.mScans.Add(uint64(z.Scans))
	w.moved++
	w.movedBytes += blockCRCLen + uint64(len(comp))
	return w.writeBlock(z, sum, comp)
}

// NumScans returns the number of scans added so far.
func (w *Writer) NumScans() uint64 { return w.nScans }

// Offset returns the bytes emitted so far: the header plus every collected
// block, which leaves out the open block and the one in flight — the same
// ones on every run, collection points being fixed by the record stream.
// Segment rotation uses it as the on-disk size signal, so a byte-bound
// rotation lands one block later than if blocks were written as they fill.
func (w *Writer) Offset() uint64 { return w.off }

// StartBounds returns the min and max start times (ns) over every scan added
// so far, or (0, 0) when none were.
func (w *Writer) StartBounds() (min, max int64) {
	if w.nScans == 0 {
		return 0, 0
	}
	return w.minStart, w.maxStart
}

// Close flushes the open block and writes the index and trailer; the
// underlying writer stays open (a segment's seal fsyncs its file). Close is
// idempotent: the first call decides the outcome and every later call
// returns that same result without touching the stream again (a second
// trailer on the file would corrupt it for readers).
func (w *Writer) Close() error {
	if w.closed {
		return w.closeErr
	}
	w.closed = true
	w.closeErr = w.close()
	return w.closeErr
}

// close runs the single real close. Whatever happens, no compressor is left
// running, and the units' DEFLATE states go back to the free list.
func (w *Writer) close() error {
	err := w.finish()
	if w.inflight != nil {
		<-w.inflight.done // finish stopped at an earlier error
	}
	for _, b := range [...]*block{w.open, w.inflight, w.spare} {
		b.release()
	}
	return err
}

// finish drains the pipeline and writes the index and trailer onto the stream.
func (w *Writer) finish() error {
	w.handOff()
	if err := w.collect(); err != nil {
		return err
	}
	idx := make([]byte, 0, 4+len(w.index)*zoneMapLen+trailerLen)
	idx = binary.BigEndian.AppendUint32(idx, uint32(len(w.index)))
	for i := range w.index {
		idx = w.index[i].marshal(idx)
	}
	n := len(idx) // the trailer follows the index in the same buffer
	idx = binary.BigEndian.AppendUint64(idx, w.off)
	idx = binary.BigEndian.AppendUint32(idx, uint32(n))
	idx = binary.BigEndian.AppendUint32(idx, crc32.ChecksumIEEE(idx[:n]))
	idx = append(idx, TrailerMagic[:]...)
	if _, w.err = w.w.Write(idx); w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}
