package archive

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/obs"
)

// CompactorConfig parameterizes NewCompactor. The zero value gets the
// defaults below.
type CompactorConfig struct {
	// MinRun is the minimum length of a contiguous run of small segments
	// worth merging (default DefaultCompactMinRun).
	MinRun int
	// MaxInputBytes excludes segments at or above this size from being
	// merge inputs (default DefaultCompactMaxInputBytes): once a segment has
	// grown past it, re-copying it buys little pruning and costs a full
	// rewrite — the classic LSM size-tiering cutoff.
	MaxInputBytes int64
	// Metrics, when non-nil, counts runs/inputs/bytes and times merges:
	// archive.compaction.runs, archive.segments.compacted,
	// archive.compaction.bytes_read, archive.compaction.bytes_written,
	// archive.compaction.errors, archive.compaction.merge_ns, and the output's
	// archive.compaction.blocks_moved (bytes_moved) and blocks_rewritten.
	Metrics *obs.Registry
}

// Default compaction policy bounds.
const (
	DefaultCompactMinRun        = 4
	DefaultCompactMaxInputBytes = 8 << 20
)

// Compactor merges runs of small sealed segments into single larger ones,
// LSM-style, inside a live segment store. The output holds the inputs'
// records in manifest order, so the store's global emit order is preserved
// byte for byte, and none of its blocks but the last is under half of
// BlockBytes. An input block is moved as it is — compressed bytes checked
// against the stored CRC, zone map re-based to the new offset — when it is at
// least half of BlockBytes, the input has the output's record layout, and the
// writer's open block is empty or itself at least half full (it is closed
// first). Every other block is decoded and its records added again, which is
// what re-blocks a store of tiny segments (tiny blocks, wide overlapping zone
// maps) into full blocks with tight ones.
// The manifest swap is atomic: readers either see the inputs or the merged
// output, never both, and in-flight queries on retired inputs finish over
// their still-open descriptors.
//
// A Compactor shares its SegmentWriter's manifest lock, so sealing and
// compacting interleave safely. Not safe for concurrent use by multiple
// goroutines.
type Compactor struct {
	sw  *SegmentWriter
	cfg CompactorConfig

	mRuns, mInputs, mBytesIn, mBytesOut, mErrors *obs.Counter
	mMoved, mMovedBytes, mRewritten              *obs.Counter
	mMergeNS                                     *obs.Histogram
}

// NewCompactor creates a compactor over sw's store.
func NewCompactor(sw *SegmentWriter, cfg CompactorConfig) *Compactor {
	if cfg.MinRun <= 1 {
		cfg.MinRun = DefaultCompactMinRun
	}
	if cfg.MaxInputBytes <= 0 {
		cfg.MaxInputBytes = DefaultCompactMaxInputBytes
	}
	return &Compactor{
		sw:  sw,
		cfg: cfg,

		mRuns:     cfg.Metrics.Counter("archive.compaction.runs"),
		mInputs:   cfg.Metrics.Counter("archive.segments.compacted"),
		mBytesIn:  cfg.Metrics.Counter("archive.compaction.bytes_read"),
		mBytesOut: cfg.Metrics.Counter("archive.compaction.bytes_written"),
		mErrors:   cfg.Metrics.Counter("archive.compaction.errors"),
		mMergeNS:  cfg.Metrics.Histogram("archive.compaction.merge_ns"),

		mMoved:      cfg.Metrics.Counter("archive.compaction.blocks_moved"),
		mMovedBytes: cfg.Metrics.Counter("archive.compaction.bytes_moved"),
		mRewritten:  cfg.Metrics.Counter("archive.compaction.blocks_rewritten"),
	}
}

// pickRun finds the first contiguous run of at least MinRun eligible
// segments, claims an output sequence number, and returns the run's position
// and metas. Called with the manifest lock held; n == 0 means nothing to do.
func (c *Compactor) pickRun() (at, n int, inputs []SegmentMeta, outSeq uint64) {
	segs := c.sw.man.Segments
	runStart, runLen := -1, 0
	for i := 0; i <= len(segs); i++ {
		eligible := i < len(segs) && segs[i].Bytes < c.cfg.MaxInputBytes
		if eligible {
			if runStart < 0 {
				runStart = i
			}
			runLen++
			continue
		}
		if runLen >= c.cfg.MinRun {
			break
		}
		runStart, runLen = -1, 0
	}
	if runLen < c.cfg.MinRun {
		return 0, 0, nil, 0
	}
	inputs = make([]SegmentMeta, runLen)
	copy(inputs, segs[runStart:runStart+runLen])
	return runStart, runLen, inputs, c.sw.nextSeqLocked()
}

// IntentName is the compaction intent journal inside a store directory. It
// exists only while a merge's publish sequence is in flight; recovery
// replays or rolls back whatever it describes, so a crash at any point of a
// compaction can neither duplicate scans (merged output adopted while its
// inputs are still listed) nor lose them.
const IntentName = "COMPACT.json"

// compactIntent is the journal's content: what the in-flight merge writes
// and which manifest entries it replaces.
type compactIntent struct {
	Output SegmentMeta `json:"output"`
	Inputs []string    `json:"inputs"`
}

// CompactOnce merges the first eligible run of small segments, returning how
// many inputs were merged (0 when the store needs no compaction). The heavy
// read-merge-write runs without the manifest lock; only run selection and
// the final swap hold it, so sealing and queries proceed during the merge.
func (c *Compactor) CompactOnce() (merged int, err error) {
	c.sw.mu.Lock()
	if c.sw.closed {
		c.sw.mu.Unlock()
		return 0, fmt.Errorf("archive: compaction on closed segment store %s", c.sw.dir)
	}
	at, n, inputs, outSeq := c.pickRun()
	c.sw.mu.Unlock()
	if n == 0 {
		return 0, nil
	}

	names := make([]string, len(inputs))
	var bytesIn int64
	for i, in := range inputs {
		names[i] = in.Name
		bytesIn += in.Bytes
	}

	// Journal the intent before the output becomes a sealed seg-*.syna
	// file: if we crash after the rename but before the manifest swap,
	// recovery must know the output replaces these inputs rather than
	// adopting it alongside them.
	intent := compactIntent{Output: SegmentMeta{Name: SegmentName(outSeq)}, Inputs: names}
	if err := writeIntent(c.sw.dir, &intent); err != nil {
		c.mErrors.Inc()
		return 0, err
	}

	meta, err := c.merge(inputs, outSeq)
	if err != nil {
		c.mErrors.Inc()
		os.Remove(filepath.Join(c.sw.dir, IntentName))
		return 0, err
	}

	// Publish: swap the inputs for the merged segment in one manifest write.
	// Only the compactor removes or reorders entries and seals only append,
	// so the run is still at the same position.
	c.sw.mu.Lock()
	err = c.sw.replaceRun(at, n, meta)
	c.sw.mu.Unlock()
	if err != nil {
		c.mErrors.Inc()
		os.Remove(filepath.Join(c.sw.dir, meta.Name))
		os.Remove(filepath.Join(c.sw.dir, IntentName))
		return 0, err
	}

	removeSegmentFiles(c.sw.dir, names)
	os.Remove(filepath.Join(c.sw.dir, IntentName))

	c.mRuns.Inc()
	c.mInputs.Add(uint64(n))
	c.mBytesIn.Add(uint64(bytesIn))
	c.mBytesOut.Add(uint64(meta.Bytes))
	return n, nil
}

// recoverCompaction replays or rolls back an interrupted compaction at store
// open, before the ordinary directory reconciliation runs. Outcomes:
//
//   - output incomplete (missing, or not a valid sealed archive): roll back —
//     delete leftovers, keep the inputs; the merge never happened.
//   - output complete, inputs still listed: roll forward — perform the
//     manifest swap the crash preempted, then delete the input files.
//   - output complete, inputs already delisted: the swap landed; just delete
//     any input files the crash left behind.
func (sw *SegmentWriter) recoverCompaction() error {
	intentPath := filepath.Join(sw.dir, IntentName)
	data, err := os.ReadFile(intentPath)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var in compactIntent
	if err := json.Unmarshal(data, &in); err != nil || in.Output.Name == "" {
		// The intent is written atomically, so garbage here means something
		// other than a crashed compactor; don't guess, just drop it.
		os.Remove(intentPath)
		return nil
	}

	meta, statErr := statSegment(sw.dir, in.Output.Name)
	if statErr != nil {
		// Roll back: the merge never produced a complete output. A partial
		// sealed-named file must not be adopted later.
		os.Remove(filepath.Join(sw.dir, in.Output.Name))
		return os.Remove(intentPath)
	}
	meta.Compacted = true
	if seq, ok := segmentSeq(meta.Name); ok && seq >= sw.man.NextSeq {
		sw.man.NextSeq = seq + 1
	}

	pos := make(map[string]int, len(sw.man.Segments))
	for i, s := range sw.man.Segments {
		pos[s.Name] = i
	}
	contiguous := true
	first := -1
	for i, name := range in.Inputs {
		idx, ok := pos[name]
		if !ok {
			contiguous = false
			break
		}
		if i == 0 {
			first = idx
		} else if idx != first+i {
			contiguous = false
			break
		}
	}
	switch {
	case contiguous && first >= 0:
		// Roll forward: the swap the crash preempted.
		if err := sw.replaceRun(first, len(in.Inputs), meta); err != nil {
			return err
		}
		removeSegmentFiles(sw.dir, in.Inputs)
	case !listedAny(pos, in.Inputs):
		// Swap already landed; finish the input cleanup.
		removeSegmentFiles(sw.dir, in.Inputs)
	default:
		// Inputs half-listed: cannot have come from a single crashed
		// compaction against this manifest. Abort the merge; inputs win.
		if _, listed := pos[meta.Name]; !listed {
			os.Remove(filepath.Join(sw.dir, meta.Name))
		}
	}
	return os.Remove(intentPath)
}

// listedAny reports whether any of names appears in pos.
func listedAny(pos map[string]int, names []string) bool {
	for _, n := range names {
		if _, ok := pos[n]; ok {
			return true
		}
	}
	return false
}

// writeIntent persists the compaction journal durably (the manifest's
// temp → fsync → rename → fsync-dir sequence).
func writeIntent(dir string, in *compactIntent) error {
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return writeFileAtomic(dir, IntentName, data)
}

// merge streams every input's records, in order, into one new sealed
// segment file and returns its manifest entry.
func (c *Compactor) merge(inputs []SegmentMeta, outSeq uint64) (SegmentMeta, error) {
	sp := obs.StartSpan(c.mMergeNS)
	defer sp.End()

	name := SegmentName(outSeq)
	openPath := filepath.Join(c.sw.dir, name+openSuffix)
	w, err := Create(openPath, WriterConfig{
		TelescopeSize: c.sw.cfg.TelescopeSize,
		Origins:       c.sw.cfg.Origins,
		BlockBytes:    c.sw.cfg.BlockBytes,
		Metrics:       c.sw.cfg.Metrics,
	})
	if err != nil {
		return SegmentMeta{}, err
	}
	abort := func(err error) (SegmentMeta, error) {
		w.Close()
		os.Remove(openPath)
		return SegmentMeta{}, err
	}

	for _, in := range inputs {
		if err := c.mergeInput(w, in.Name); err != nil {
			// An unreadable input would make the merge lossy; leave the
			// store alone and surface the problem instead.
			return abort(fmt.Errorf("archive: compaction input %s: %w", in.Name, err))
		}
	}

	nScans := w.NumScans()
	minStart, maxStart := w.StartBounds()
	if err := w.Close(); err != nil {
		return abort(err)
	}
	nBlocks := len(w.index)
	final := filepath.Join(c.sw.dir, name)
	fi, err := os.Stat(openPath)
	if err != nil {
		return abort(err)
	}
	if err := os.Rename(openPath, final); err != nil {
		return abort(err)
	}
	syncDir(c.sw.dir)
	c.mMoved.Add(w.moved)
	c.mMovedBytes.Add(w.movedBytes)
	c.mRewritten.Add(uint64(nBlocks) - w.moved)
	return SegmentMeta{
		Name:      name,
		Scans:     nScans,
		Blocks:    nBlocks,
		Bytes:     fi.Size(),
		MinStart:  minStart,
		MaxStart:  maxStart,
		Compacted: true,
	}, nil
}

// mergeInput appends one input segment to w, block by block. A block that is
// not moved decodes through one row set, reused block after block, and each
// row is added as it is loaded: the writer encodes a scan on Add and keeps
// nothing of it.
func (c *Compactor) mergeInput(w *Writer, name string) error {
	rd, err := Open(filepath.Join(c.sw.dir, name))
	if err != nil {
		return err
	}
	defer rd.Close()
	s := getScratch()
	defer s.release()
	rw := getRows(rd.projection(All))
	defer rw.release()
	var sc core.Scan
	var o enrich.Origin // stays zero for an input written without origins
	op := &o
	if !w.cfg.Origins {
		op = nil
	}
	half := w.cfg.BlockBytes / 2
	for i := range rd.index {
		z := &rd.index[i]
		// Move: same record layout on both sides, and no small block left
		// behind — not this one, not the open block it closes.
		fill := w.open.enc.rawLen()
		if rd.origins == w.cfg.Origins && int(z.RawLen) >= half && (fill == 0 || fill >= half) {
			comp, sum, err := rd.compressedBlock(z, s)
			if err == nil {
				err = w.appendBlock(*z, sum, comp)
			}
			if err != nil {
				return err
			}
			continue
		}
		rw.reset(rw.fields)
		if err := rd.decodeBlock(z, All, rw); err != nil {
			return err
		}
		// A big block added to a small open one overflows it and leaves as
		// small a remainder open: no block after it could move either. Cut
		// at the middle instead, both halves are big enough and moving resumes.
		split := 0
		if sum := fill + int(z.RawLen); sum >= w.cfg.BlockBytes && sum-w.cfg.BlockBytes < half {
			split = sum / 2
		}
		for j := 0; j < rw.n; j++ {
			rw.load(j, &sc, op, rw.fields)
			if err := w.add(&sc, op); err != nil {
				return err
			}
			if split > 0 && w.open.enc.rawLen() >= split {
				split = 0
				w.flushBlock() // its error is sticky: the next add, or Close, returns it
			}
		}
	}
	return nil
}

// Run compacts on a timer until ctx is done, draining every eligible run at
// each tick. Errors are counted (archive.compaction.errors) and retried next
// tick rather than stopping the loop — a compactor that dies silently turns
// a live store into an ever-growing pile of tiny segments.
func (c *Compactor) Run(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = 30 * time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			for {
				n, err := c.CompactOnce()
				if n == 0 || err != nil {
					break
				}
			}
		}
	}
}
