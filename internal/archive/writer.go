package archive

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

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
type Writer struct {
	w        *bufio.Writer
	cfg      WriterConfig
	off      uint64 // bytes written so far (= next block offset)
	buf      []byte // current block's uncompressed payload
	zone     ZoneMap
	years    YearCache
	prev     int64 // previous record's start time within the block
	index    []ZoneMap
	scratch  bytes.Buffer
	fw       *flate.Writer
	closer   io.Closer // set by Create; closed by Close
	closed   bool
	closeErr error // Close's result, replayed by every later Close
	err      error

	nScans             uint64
	minStart, maxStart int64

	mScans, mBlocks, mRaw, mCompressed *obs.Counter
	mCompressNS                        *obs.Histogram
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
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(hdr); err != nil {
		return nil, err
	}
	fw, err := flate.NewWriter(io.Discard, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	aw := &Writer{
		w:   bw,
		cfg: cfg,
		off: headerLen,
		buf: make([]byte, 0, cfg.BlockBytes+4096),
		fw:  fw,

		mScans:      cfg.Metrics.Counter("archive.scans.written"),
		mBlocks:     cfg.Metrics.Counter("archive.blocks.written"),
		mRaw:        cfg.Metrics.Counter("archive.bytes.raw"),
		mCompressed: cfg.Metrics.Counter("archive.bytes.compressed"),
		mCompressNS: cfg.Metrics.Histogram("archive.compress_ns"),
	}
	aw.zone.reset()
	return aw, nil
}

// Create opens path for writing and returns an archive writer over it.
// Close closes the file.
func Create(path string, cfg WriterConfig) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(f, cfg)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.closer = f
	return w, nil
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
	w.buf = appendRecord(w.buf, sc, o, w.prev)
	w.prev = sc.Start
	w.zone.observe(sc, w.years.Year(sc.Start))
	if w.nScans == 0 || sc.Start < w.minStart {
		w.minStart = sc.Start
	}
	if w.nScans == 0 || sc.Start > w.maxStart {
		w.maxStart = sc.Start
	}
	w.nScans++
	w.mScans.Inc()
	if len(w.buf) >= w.cfg.BlockBytes {
		return w.flushBlock()
	}
	return nil
}

// flushBlock compresses and writes the current block and opens a new one.
func (w *Writer) flushBlock() error {
	if w.zone.Scans == 0 {
		return nil
	}
	sp := obs.StartSpan(w.mCompressNS)
	w.scratch.Reset()
	w.fw.Reset(&w.scratch)
	if _, err := w.fw.Write(w.buf); err != nil {
		w.err = err
		return err
	}
	if err := w.fw.Close(); err != nil {
		w.err = err
		return err
	}
	sp.End()

	// The zone map's Offset points at the block's CRC word; CompressedLen
	// covers the DEFLATE stream only.
	w.zone.Offset = w.off
	w.zone.CompressedLen = uint32(w.scratch.Len())
	w.zone.RawLen = uint32(len(w.buf))
	var crc [blockCRCLen]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(w.scratch.Bytes()))
	if _, err := w.w.Write(crc[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(w.scratch.Bytes()); err != nil {
		w.err = err
		return err
	}
	w.off += blockCRCLen + uint64(w.scratch.Len())
	w.index = append(w.index, w.zone)

	w.mBlocks.Inc()
	w.mRaw.Add(uint64(len(w.buf)))
	w.mCompressed.Add(uint64(w.scratch.Len()))

	w.buf = w.buf[:0]
	w.prev = 0
	w.zone.reset()
	return nil
}

// NumScans returns the number of scans added so far.
func (w *Writer) NumScans() uint64 { return w.nScans }

// Offset returns the bytes emitted so far (header plus flushed blocks); the
// open block's buffered records are not included. Segment rotation uses it
// as the on-disk size signal.
func (w *Writer) Offset() uint64 { return w.off }

// StartBounds returns the min and max start times (ns) over every scan added
// so far, or (0, 0) when none were.
func (w *Writer) StartBounds() (min, max int64) {
	if w.nScans == 0 {
		return 0, 0
	}
	return w.minStart, w.maxStart
}

// Close flushes the open block, writes the index and trailer, and closes
// the underlying file when the writer was opened with Create. Close is
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

// close runs the single real close. Whatever happens, the underlying file
// (when the writer owns one) is released exactly once.
func (w *Writer) close() error {
	if err := w.finish(); err != nil {
		if w.closer != nil {
			w.closer.Close()
		}
		return err
	}
	if w.closer != nil {
		return w.closer.Close()
	}
	return nil
}

// finish writes the remaining block, index and trailer onto the stream.
func (w *Writer) finish() error {
	if w.err != nil {
		return w.err
	}
	if err := w.flushBlock(); err != nil {
		return err
	}

	idx := make([]byte, 0, 4+len(w.index)*zoneMapLen)
	idx = binary.BigEndian.AppendUint32(idx, uint32(len(w.index)))
	for i := range w.index {
		idx = w.index[i].marshal(idx)
	}
	var tr [trailerLen]byte
	binary.BigEndian.PutUint64(tr[0:8], w.off)
	binary.BigEndian.PutUint32(tr[8:12], uint32(len(idx)))
	binary.BigEndian.PutUint32(tr[12:16], crc32.ChecksumIEEE(idx))
	copy(tr[16:20], TrailerMagic[:])

	if _, err := w.w.Write(idx); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(tr[:]); err != nil {
		w.err = err
		return err
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}
