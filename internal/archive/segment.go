package archive

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/obs"
)

// A segment store turns the sealed single-file SYNA format into a
// continuously-growing directory of archives. The unit of growth is the
// segment: an ordinary SYNA file, bounded in size, scan count and record-time
// span, sealed as detection emits campaigns. Writers never mutate a sealed
// segment — the store only ever appends new segments and (via the Compactor)
// replaces a contiguous run of sealed segments with their merge — so readers
// need no locks: they re-read the manifest and open whatever it names.
//
// On-disk layout of a store directory:
//
//	MANIFEST.json        the catalog of sealed segments, replaced atomically
//	LOCK                 empty; a live writer holds an flock on it
//	seg-00000001.syna    sealed segment (ordinary SYNA file)
//	seg-00000002.syna
//	seg-00000003.syna.open   the writer's in-progress segment (not yet
//	                         readable; never listed in the manifest)
//
// The manifest is the single source of truth: a segment exists once (and
// only once) its entry is in the manifest. Updates write MANIFEST.json.tmp,
// fsync it, and rename over MANIFEST.json, so a crash leaves either the old
// or the new catalog, never a torn one; a segment is fsynced before it is
// sealed (segmentFile.seal), so neither names bytes that are not on disk.
// The generation counter increments on every manifest change; pollers
// (Catalog, synserve's result cache) use it as a cheap "did the segment set
// move" token.
//
// One writer at a time: OpenSegmentDir takes an exclusive lock on LOCK in the
// directory before it reads the manifest, and Close releases it. A second
// writer fails with ErrStoreLocked and touches nothing; readers take no lock.
//
// Crash recovery at open: stray *.open files are deleted (their records are
// re-ingestable from the capture; an unsealed segment has no trailer and is
// unreadable anyway), and sealed seg-*.syna files missing from the manifest
// (a crash between rename and manifest write) are validated and adopted.
// The lock is what makes a stray *.open a crashed writer's: a live one holds
// the lock, and the lock dies with its process.

// ManifestName is the catalog file inside a segment store directory.
const ManifestName = "MANIFEST.json"

// LockName is the writer-lock file inside a segment store directory.
const LockName = "LOCK"

// ErrStoreLocked is OpenSegmentDir's error when another SegmentWriter, in
// this process or another, holds the store; the error wraps it with the
// directory's name.
var ErrStoreLocked = errors.New("archive: store is held by another writer")

// segPrefix/segSuffix/openSuffix shape segment file names: seg-%08d.syna,
// with .open appended while the segment is still being written.
const (
	segPrefix  = "seg-"
	segSuffix  = ".syna"
	openSuffix = ".open"
)

// SegmentName returns the file name of the sealed segment with the given
// sequence number.
func SegmentName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix)
}

// segmentSeq parses a sealed segment file name back to its sequence number.
func segmentSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := name[len(segPrefix) : len(name)-len(segSuffix)]
	if mid == "" {
		return 0, false
	}
	var seq uint64
	for _, c := range mid {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// SegmentMeta is one sealed segment's manifest entry: enough for a poller to
// prune or size-order segments without opening them.
type SegmentMeta struct {
	// Name is the segment's file name within the store directory.
	Name string `json:"name"`
	// Scans and Blocks count the segment's records and SYNA blocks.
	Scans  uint64 `json:"scans"`
	Blocks int    `json:"blocks"`
	// Bytes is the sealed file's size.
	Bytes int64 `json:"bytes"`
	// MinStart and MaxStart bound the records' start times (ns); both zero
	// for an empty segment.
	MinStart int64 `json:"min_start"`
	MaxStart int64 `json:"max_start"`
	// Compacted marks a segment produced by the compactor rather than
	// sealed directly off the detector. Informational: eligibility for
	// further merging is decided by size, so compactor outputs re-merge
	// only while they stay small.
	Compacted bool `json:"compacted,omitempty"`
}

// Manifest is the store catalog. Segments are listed in emit order: every
// scan in Segments[i] was emitted by detection before every scan in
// Segments[i+1], and compaction preserves that order, so a reader that
// streams segments in manifest order reproduces the exact sequence a single
// sealed archive of the same input would.
type Manifest struct {
	// Generation increments on every manifest change.
	Generation uint64 `json:"generation"`
	// NextSeq is the next unused segment sequence number.
	NextSeq uint64 `json:"next_seq"`
	// Segments lists the sealed segments in emit order.
	Segments []SegmentMeta `json:"segments"`
}

// readManifest loads dir's manifest. A directory without one is an empty
// store; a path that is not a directory is refused.
func readManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		if _, err = os.Stat(dir); err == nil {
			return &Manifest{NextSeq: 1}, nil
		}
	}
	if err != nil {
		return nil, fmt.Errorf("archive: segment store %s: %w", dir, err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("archive: manifest %s: %w", dir, err)
	}
	if m.NextSeq == 0 {
		m.NextSeq = 1
	}
	return &m, nil
}

// writeManifest atomically replaces dir's manifest. A crash at any point
// leaves a complete old or new manifest.
func writeManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(dir, ManifestName, append(data, '\n'))
}

// writeFileAtomic replaces dir/name with data: write name.tmp, fsync it,
// rename it over name, fsync the directory. Any failure is returned and
// leaves no temp file behind.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir best-effort fsyncs a directory so renames inside it are durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// SegmentConfig parameterizes OpenSegmentDir. Zero rotation bounds fall back
// to the defaults below; a segment seals as soon as any bound is exceeded.
type SegmentConfig struct {
	// TelescopeSize, Origins, BlockBytes and Metrics apply to every
	// segment's Writer (see WriterConfig).
	TelescopeSize int
	Origins       bool
	BlockBytes    int
	Metrics       *obs.Registry
	// MaxSegmentBytes seals the open segment once its flushed on-disk size
	// reaches this many bytes (default DefaultMaxSegmentBytes).
	MaxSegmentBytes int64
	// MaxSegmentScans seals the open segment once it holds this many scans
	// (default DefaultMaxSegmentScans).
	MaxSegmentScans uint64
	// MaxSegmentAge seals the open segment once its records span more than
	// this much record time (ns, measured over scan start times; 0 means no
	// age bound). Record time, not wall time, keeps rotation deterministic
	// for replays; live daemons add wall-clock sealing on top via Seal.
	MaxSegmentAge int64
}

// Default rotation bounds.
const (
	// DefaultMaxSegmentBytes keeps segments small enough that compaction
	// and catalog refresh stay incremental.
	DefaultMaxSegmentBytes = 64 << 20
	// DefaultMaxSegmentScans bounds a segment's record count.
	DefaultMaxSegmentScans = 1 << 20
)

// SegmentWriter appends scans to a segment store, sealing bounded segments
// as they fill and publishing each through the manifest. Add/AddWithOrigin/
// Seal/Close are safe for concurrent use with a Catalog polling the same
// directory from other processes; within a process, the SegmentWriter
// serializes itself with an internal mutex (detection emits from one
// goroutine, a wall-clock sealer may call Seal from another).
type SegmentWriter struct {
	dir string
	cfg SegmentConfig

	lock *os.File // the writer lock on LockName, held until Close

	mu       sync.Mutex
	man      *Manifest
	cur      *segmentFile // the open segment, nil when none
	closed   bool
	closeErr error

	gOpen   *obs.Gauge
	mSealed *obs.Counter
}

// OpenSegmentDir opens (creating if needed) a segment store directory for
// appending. It first takes the store's writer lock, failing with
// ErrStoreLocked while another writer holds it. Recovery runs next: leftover
// *.open files from a crashed writer are removed, and sealed segments
// missing from the manifest (a crash between seal-rename and manifest write)
// are validated and adopted.
func OpenSegmentDir(dir string, cfg SegmentConfig) (*SegmentWriter, error) {
	if cfg.MaxSegmentBytes <= 0 {
		cfg.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if cfg.MaxSegmentScans == 0 {
		cfg.MaxSegmentScans = DefaultMaxSegmentScans
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockStore(dir)
	if err != nil {
		return nil, err
	}
	man, err := readManifest(dir)
	if err != nil {
		lock.Close()
		return nil, err
	}
	sw := &SegmentWriter{
		dir:     dir,
		cfg:     cfg,
		lock:    lock,
		man:     man,
		gOpen:   cfg.Metrics.Gauge("archive.segments.open"),
		mSealed: cfg.Metrics.Counter("archive.segments.sealed"),
	}
	if err := sw.recover(); err != nil {
		lock.Close()
		return nil, err
	}
	return sw, nil
}

// recover reconciles the directory with the manifest after a crash: any
// interrupted compaction is replayed or rolled back first (see
// recoverCompaction), then stray .open files are dropped and sealed-but-
// unlisted segments adopted.
func (sw *SegmentWriter) recover() error {
	if err := sw.recoverCompaction(); err != nil {
		return err
	}
	entries, err := os.ReadDir(sw.dir)
	if err != nil {
		return err
	}
	inManifest := make(map[string]bool, len(sw.man.Segments))
	for _, s := range sw.man.Segments {
		inManifest[s.Name] = true
	}
	changed := false
	var adopt []SegmentMeta
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, openSuffix) || strings.HasSuffix(name, ".tmp") {
			// A crashed writer's unsealed segment (no trailer, unreadable;
			// its records replay from the capture) or a torn temp file from
			// an atomic-replace sequence. Remove either.
			os.Remove(filepath.Join(sw.dir, name))
			continue
		}
		seq, ok := segmentSeq(name)
		if !ok || inManifest[name] {
			continue
		}
		// Sealed but unlisted: the crash hit between rename and manifest
		// write. Adopt it if it parses as a complete archive.
		meta, err := statSegment(sw.dir, name)
		if err != nil {
			continue
		}
		adopt = append(adopt, meta)
		if seq >= sw.man.NextSeq {
			sw.man.NextSeq = seq + 1
		}
		changed = true
	}
	// Adopted segments sort by sequence number: seal order is emit order.
	sort.Slice(adopt, func(i, j int) bool {
		si, _ := segmentSeq(adopt[i].Name)
		sj, _ := segmentSeq(adopt[j].Name)
		return si < sj
	})
	sw.man.Segments = append(sw.man.Segments, adopt...)

	// Drop manifest entries whose files vanished (they can never serve).
	kept := sw.man.Segments[:0]
	for _, s := range sw.man.Segments {
		if _, err := os.Stat(filepath.Join(sw.dir, s.Name)); err == nil {
			kept = append(kept, s)
		} else {
			changed = true
		}
	}
	sw.man.Segments = kept
	if changed {
		sw.man.Generation++
		return writeManifest(sw.dir, sw.man)
	}
	return nil
}

// segmentPath joins a segment's name onto its store directory. The names
// come from the manifest and the compaction intent, so one that is not a
// segment name (SegmentName's form) is refused as corrupt: nothing outside
// the store's own segments is ever opened or removed.
func segmentPath(dir, name string) (string, error) {
	if _, ok := segmentSeq(name); !ok {
		return "", fmt.Errorf("%w: %q is not a segment name", ErrCorrupt, name)
	}
	return filepath.Join(dir, name), nil
}

// openSegment opens the sealed segment name in dir for querying; it is the
// one way a segment file is opened. A skip-corrupt reader skips and counts
// a damaged block where a strict one fails the query.
func openSegment(dir, name string, skipCorrupt bool) (*Reader, error) {
	path, err := segmentPath(dir, name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	var rd *Reader
	if err == nil {
		rd, err = NewReader(f, st.Size())
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	rd.skipCorrupt, rd.closer = skipCorrupt, f
	return rd, nil
}

// statSegment opens one sealed segment just long enough to build its
// manifest entry.
func statSegment(dir, name string) (SegmentMeta, error) {
	rd, err := openSegment(dir, name, false)
	if err != nil {
		return SegmentMeta{}, err
	}
	defer rd.Close()
	meta := SegmentMeta{
		Name:   name,
		Scans:  rd.NumScans(),
		Blocks: rd.NumBlocks(),
		Bytes:  rd.size,
	}
	for i, z := range rd.Blocks() {
		if i == 0 || z.MinStart < meta.MinStart {
			meta.MinStart = z.MinStart
		}
		if z.MaxStart > meta.MaxStart {
			meta.MaxStart = z.MaxStart
		}
	}
	return meta, nil
}

// segmentFile is a segment being written: a Writer over its .open file.
type segmentFile struct {
	*Writer
	f   *os.File
	dir string
	seq uint64
}

// createSegment starts segment seq of the store dir as its .open file.
func createSegment(dir string, seq uint64, cfg SegmentConfig) (*segmentFile, error) {
	f, err := os.Create(filepath.Join(dir, SegmentName(seq)+openSuffix))
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(f, WriterConfig{
		TelescopeSize: cfg.TelescopeSize,
		Origins:       cfg.Origins,
		BlockBytes:    cfg.BlockBytes,
		Metrics:       cfg.Metrics,
	})
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &segmentFile{Writer: w, f: f, dir: dir, seq: seq}, nil
}

// seal makes the segment durable under its sealed name and returns its
// manifest entry: the writer writes index and trailer, the file is fsynced
// and closed, renamed from .open to its sealed name, and the directory is
// fsynced, so no manifest can name a segment whose bytes are not on disk.
// Every segment, sealed off the detector or merged by the compactor, seals
// here. On failure the .open file is removed.
func (s *segmentFile) seal() (SegmentMeta, error) {
	meta := SegmentMeta{Name: SegmentName(s.seq), Scans: s.NumScans()}
	meta.MinStart, meta.MaxStart = s.StartBounds()
	err := s.Close()
	if err == nil {
		err = s.f.Sync()
	}
	var fi os.FileInfo
	if err == nil {
		fi, err = s.f.Stat()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(s.f.Name(), filepath.Join(s.dir, meta.Name))
	}
	if err != nil {
		os.Remove(s.f.Name())
		return SegmentMeta{}, err
	}
	syncDir(s.dir)
	meta.Blocks = len(s.index) // complete: Close flushed the last partial block
	meta.Bytes = fi.Size()
	return meta, nil
}

// discard abandons the segment and removes its .open file.
func (s *segmentFile) discard() {
	s.Close()
	s.f.Close()
	os.Remove(s.f.Name())
}

// Dir returns the store directory.
func (sw *SegmentWriter) Dir() string { return sw.dir }

// Generation returns the manifest generation (the count of manifest changes
// since the store was created).
func (sw *SegmentWriter) Generation() uint64 {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.man.Generation
}

// SealedSegments returns a copy of the current manifest's segment list.
func (sw *SegmentWriter) SealedSegments() []SegmentMeta {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	out := make([]SegmentMeta, len(sw.man.Segments))
	copy(out, sw.man.Segments)
	return out
}

// Add appends one scan, sealing the open segment first if a rotation bound
// tripped. See Writer.Add for the origins restriction.
func (sw *SegmentWriter) Add(sc *core.Scan) error {
	if sw.cfg.Origins {
		return fmt.Errorf("archive: Add on an origins segment store (use AddWithOrigin)")
	}
	return sw.add(sc, nil)
}

// AddWithOrigin appends one scan with its enrichment origin. Valid only on a
// store opened with SegmentConfig.Origins.
func (sw *SegmentWriter) AddWithOrigin(sc *core.Scan, o enrich.Origin) error {
	if !sw.cfg.Origins {
		return ErrNoOrigins
	}
	return sw.add(sc, &o)
}

func (sw *SegmentWriter) add(sc *core.Scan, o *enrich.Origin) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.closed {
		return fmt.Errorf("archive: Add after Close on segment store %s", sw.dir)
	}
	if sw.cur != nil && sw.shouldSeal(sc) {
		if err := sw.sealLocked(); err != nil {
			return err
		}
	}
	if sw.cur == nil {
		if err := sw.startSegment(); err != nil {
			return err
		}
	}
	var err error
	if o != nil {
		err = sw.cur.AddWithOrigin(sc, *o)
	} else {
		err = sw.cur.Add(sc)
	}
	return err
}

// shouldSeal reports whether adding sc to the open segment would exceed a
// rotation bound. Called with the lock held and sw.cur non-nil.
func (sw *SegmentWriter) shouldSeal(sc *core.Scan) bool {
	if sw.cur.NumScans() >= sw.cfg.MaxSegmentScans {
		return true
	}
	if int64(sw.cur.Offset()) >= sw.cfg.MaxSegmentBytes {
		return true
	}
	if sw.cfg.MaxSegmentAge > 0 && sw.cur.NumScans() > 0 {
		min, max := sw.cur.StartBounds()
		if sc.Start > max {
			max = sc.Start
		}
		if sc.Start < min {
			min = sc.Start
		}
		if max-min > sw.cfg.MaxSegmentAge {
			return true
		}
	}
	return false
}

// startSegment starts a new .open segment file. Lock held.
func (sw *SegmentWriter) startSegment() error {
	seg, err := createSegment(sw.dir, sw.man.NextSeq, sw.cfg)
	if err != nil {
		return err
	}
	sw.cur = seg
	sw.man.NextSeq++
	sw.gOpen.Set(1)
	return nil
}

// Seal closes the open segment (if it holds any scans) and publishes it in
// the manifest. A live daemon calls it on a wall-clock timer so quiet
// periods still bound segment latency; Add calls it internally on rotation
// bounds. Sealing an empty or absent open segment is a no-op.
func (sw *SegmentWriter) Seal() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.closed {
		return fmt.Errorf("archive: Seal after Close on segment store %s", sw.dir)
	}
	if sw.cur == nil {
		return nil
	}
	return sw.sealLocked()
}

// sealLocked seals the open segment (see segmentFile.seal) and adds its
// entry to the manifest. Lock held; sw.cur non-nil.
func (sw *SegmentWriter) sealLocked() error {
	seg := sw.cur
	sw.cur = nil
	sw.gOpen.Set(0)
	if seg.NumScans() == 0 {
		// Nothing archived: discard the empty file, and recycle the number
		// if no one (e.g. the compactor) claimed a later one meanwhile.
		seg.discard()
		if sw.man.NextSeq == seg.seq+1 {
			sw.man.NextSeq = seg.seq
		}
		return nil
	}
	meta, err := seg.seal()
	if err != nil {
		return err
	}
	sw.man.Segments = append(sw.man.Segments, meta)
	sw.man.Generation++
	if err := writeManifest(sw.dir, sw.man); err != nil {
		return err
	}
	sw.mSealed.Inc()
	return nil
}

// Close seals any open segment, releases the writer lock and shuts the
// writer down. Idempotent: later calls return the first call's result.
func (sw *SegmentWriter) Close() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.closed {
		return sw.closeErr
	}
	sw.closed = true
	if sw.cur != nil {
		sw.closeErr = sw.sealLocked()
	}
	sw.lock.Close()
	return sw.closeErr
}

// replaceRun swaps manifest entries [at, at+n) for the single merged entry,
// bumps the generation, and persists — the compactor's publish step. Lock
// held by the caller via lockedManifestUpdate.
func (sw *SegmentWriter) replaceRun(at, n int, merged SegmentMeta) error {
	segs := make([]SegmentMeta, 0, len(sw.man.Segments)-n+1)
	segs = append(segs, sw.man.Segments[:at]...)
	segs = append(segs, merged)
	segs = append(segs, sw.man.Segments[at+n:]...)
	sw.man.Segments = segs
	sw.man.Generation++
	return writeManifest(sw.dir, sw.man)
}

// nextSeqLocked hands out a fresh segment sequence number (the compactor
// names its output with one). Lock held by the caller.
func (sw *SegmentWriter) nextSeqLocked() uint64 {
	seq := sw.man.NextSeq
	sw.man.NextSeq = seq + 1
	return seq
}
