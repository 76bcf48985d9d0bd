// Package faultinject provides deterministic, seeded fault injection for
// robustness testing across the pipeline. The paper's decade of data
// survives real-world damage — telescope outages, truncated trace files,
// partially corrupt captures are explicit in its methodology (§3.2) — so the
// reproduction must keep producing answers when its inputs break. This
// package manufactures that breakage on demand, reproducibly:
//
//   - Reader wraps any io.Reader and corrupts, truncates, short-reads or
//     hard-fails the byte stream at seeded positions, for exercising the
//     capture codecs (pcap, pcapng, flowlog) and the SYNA archive.
//   - Writer wraps any io.Writer and fails its n-th Write call and every one
//     after it, for walking a writer through every point at which its
//     storage can give out.
//   - Stream mutates a probe stream at telescope ingress: drop, duplicate,
//     reorder and clock-skew, the packet-level damage a lossy span port or a
//     capture box under pressure produces.
//   - ShardStaller injects processing stalls into individual shards of the
//     sharded campaign detector, for verifying backpressure and the
//     determinism of the merging flush under uneven shard progress.
//
// Every fault is a pure function of (seed, position), never of wall-clock
// time or read chunking, so a failing case replays byte-identically from its
// seed alone.
package faultinject

import (
	"errors"
	"io"

	"github.com/synscan/synscan/internal/rng"
)

// ErrInjected is the error a Reader configured with FailAt returns when the
// stream reaches the failure offset.
var ErrInjected = errors.New("faultinject: injected read error")

// mix64 is a splitmix64-style finalizer: the per-offset fault oracle.
// Keying faults on mix64(seed, offset) rather than on a sequential generator
// makes them independent of how callers chunk their reads.
func mix64(seed, x uint64) uint64 {
	x ^= seed + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ReaderConfig parameterizes NewReader. The zero value injects nothing (the
// Reader is then a transparent wrapper).
type ReaderConfig struct {
	// Seed determines every fault position and corruption value.
	Seed uint64
	// CorruptRate is the per-byte probability of XOR-corrupting the byte
	// with a seeded nonzero mask.
	CorruptRate float64
	// CorruptStart and CorruptEnd restrict corruption to stream offsets in
	// [CorruptStart, CorruptEnd). CorruptEnd == 0 means no upper bound, so
	// the zero region corrupts the whole stream.
	CorruptStart, CorruptEnd int64
	// TruncateAt, when > 0, ends the stream with io.EOF after that many
	// bytes — a trace file cut off mid-record.
	TruncateAt int64
	// FailAt, when > 0, returns ErrInjected once that many bytes have been
	// delivered — a read error from failing storage.
	FailAt int64
	// ShortReads delivers seeded 1..8 byte reads regardless of the buffer
	// size, exercising io.Reader-contract edge cases in downstream parsers.
	ShortReads bool
}

// Reader is a fault-injecting io.Reader wrapper. Not safe for concurrent
// use. The fault schedule is fixed by the config seed; see ReaderConfig.
type Reader struct {
	r   io.Reader
	cfg ReaderConfig
	off int64
	rnd *rng.Rand // consumed only for short-read sizing
}

// NewReader wraps r with the configured fault schedule.
func NewReader(r io.Reader, cfg ReaderConfig) *Reader {
	return &Reader{r: r, cfg: cfg, rnd: rng.New(cfg.Seed).Derive("faultinject/shortread")}
}

// Offset returns the number of bytes delivered so far.
func (f *Reader) Offset() int64 { return f.off }

// Read implements io.Reader with the configured faults applied.
func (f *Reader) Read(p []byte) (int, error) {
	if f.cfg.TruncateAt > 0 && f.off >= f.cfg.TruncateAt {
		return 0, io.EOF
	}
	if f.cfg.FailAt > 0 && f.off >= f.cfg.FailAt {
		return 0, ErrInjected
	}
	max := len(p)
	if f.cfg.ShortReads && max > 1 {
		if n := 1 + f.rnd.Intn(8); n < max {
			max = n
		}
	}
	if f.cfg.TruncateAt > 0 && f.off+int64(max) > f.cfg.TruncateAt {
		max = int(f.cfg.TruncateAt - f.off)
	}
	if f.cfg.FailAt > 0 && f.off+int64(max) > f.cfg.FailAt {
		max = int(f.cfg.FailAt - f.off)
	}
	n, err := f.r.Read(p[:max])
	f.corrupt(p[:n], f.off)
	f.off += int64(n)
	return n, err
}

// corrupt applies the offset-keyed corruption oracle to one delivered chunk.
func (f *Reader) corrupt(b []byte, base int64) {
	if f.cfg.CorruptRate <= 0 {
		return
	}
	threshold := uint64(f.cfg.CorruptRate * float64(1<<32))
	for i := range b {
		off := base + int64(i)
		if off < f.cfg.CorruptStart || (f.cfg.CorruptEnd > 0 && off >= f.cfg.CorruptEnd) {
			continue
		}
		h := mix64(f.cfg.Seed, uint64(off))
		if h>>32 < threshold {
			mask := byte(h)
			if mask == 0 {
				mask = 0xff
			}
			b[i] ^= mask
		}
	}
}

// ErrInjectedWrite is the error a Writer returns from its failing call on.
var ErrInjectedWrite = errors.New("faultinject: injected write error")

// Writer is a fault-injecting io.Writer wrapper: Write calls before the
// failAt-th (counting from 1) pass through, that call and all later ones
// write nothing and return ErrInjectedWrite — storage that fills up stays
// full. failAt <= 0 never fails, which makes a dry run that counts a
// workload's writes (Writes) the way to enumerate its failure points. Not
// safe for concurrent use.
type Writer struct {
	w      io.Writer
	failAt int
	writes int
}

// NewWriter wraps w, failing from the failAt-th Write call on.
func NewWriter(w io.Writer, failAt int) *Writer { return &Writer{w: w, failAt: failAt} }

// Writes returns the number of Write calls made so far, failed ones included.
func (f *Writer) Writes() int { return f.writes }

// Write implements io.Writer with the configured failure point.
func (f *Writer) Write(p []byte) (int, error) {
	f.writes++
	if f.failAt > 0 && f.writes >= f.failAt {
		return 0, ErrInjectedWrite
	}
	return f.w.Write(p)
}

// FlipBytes deterministically XOR-corrupts n distinct byte positions of
// data within [lo, hi) and returns the flipped positions in ascending
// order. It mutates data in place; tests use the returned positions to know
// exactly how many faults were injected (hi <= 0 means len(data)). Fewer
// than n positions are flipped when the region is smaller than n.
func FlipBytes(data []byte, seed uint64, n, lo, hi int) []int {
	if hi <= 0 || hi > len(data) {
		hi = len(data)
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi || n <= 0 {
		return nil
	}
	if n > hi-lo {
		n = hi - lo
	}
	seen := make(map[int]struct{}, n)
	positions := make([]int, 0, n)
	for i := uint64(0); len(positions) < n; i++ {
		pos := lo + int(mix64(seed, i)%uint64(hi-lo))
		if _, dup := seen[pos]; dup {
			continue
		}
		seen[pos] = struct{}{}
		mask := byte(mix64(seed, i) >> 8)
		if mask == 0 {
			mask = 0xff
		}
		data[pos] ^= mask
		positions = append(positions, pos)
	}
	sortInts(positions)
	return positions
}

// sortInts is an insertion sort: position lists are tiny and this avoids an
// import for one call site.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
