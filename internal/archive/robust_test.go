package archive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/faultinject"
	"github.com/synscan/synscan/internal/obs"
)

// TestOldVersionsRefused: version 4 is the one format. A header of an earlier
// version — row-major blocks — is refused at open, with the version found and
// how to re-create the file, before any block is read.
func TestOldVersionsRefused(t *testing.T) {
	scans, origins := testScans(50, 11)
	data := writeArchive(t, scans, origins, WriterConfig{TelescopeSize: 4096, Origins: true})
	for _, old := range []byte{1, 2, 3} {
		hdr := append([]byte{}, data...)
		hdr[4] = old
		r, err := NewReader(bytes.NewReader(hdr), int64(len(hdr)))
		if r != nil || !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d: reader %v, err %v; want ErrBadVersion", old, r, err)
		}
		for _, want := range []string{fmt.Sprintf("version %d ", old), "re-create with syneval -archive-out / syningest"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("version %d: error %q does not say %q", old, err, want)
			}
		}
	}
}

// TestSkipCorrupt is the degraded-mode contract: with a third of the blocks
// damaged, a skip-corrupt reader still streams every intact block in
// order, counts exactly the damaged blocks, and the default reader still
// fails fast on the same bytes.
func TestSkipCorrupt(t *testing.T) {
	scans, origins := testScans(3000, 12)
	data := writeArchive(t, scans, origins, WriterConfig{
		TelescopeSize: 4096, Origins: true, BlockBytes: 4 << 10,
	})
	blocks := openArchive(t, data).Blocks()
	if len(blocks) < 6 {
		t.Fatalf("only %d blocks; test needs several", len(blocks))
	}

	bad := append([]byte{}, data...)
	damaged := map[int]bool{}
	for i := 0; i < len(blocks); i += 3 {
		z := blocks[i]
		lo := int(z.Offset) + blockCRCLen
		faultinject.FlipBytes(bad, uint64(100+i), 3, lo, lo+int(z.CompressedLen))
		damaged[i] = true
	}

	if err := scan(t, openArchive(t, bad), context.Background(), All, func(*core.Scan, *enrich.Origin) {}); err == nil {
		t.Fatal("default reader must fail fast on damaged blocks")
	}

	reg := obs.NewRegistry()
	r := openSkipCorrupt(t, bad)
	r.SetMetrics(reg)
	var got []*core.Scan
	if err := scan(t, r, context.Background(), All, func(sc *core.Scan, _ *enrich.Origin) {
		got = append(got, sc.Clone())
	}); err != nil {
		t.Fatalf("degraded read failed: %v", err)
	}

	var want []*core.Scan
	off := 0
	for i, z := range blocks {
		if !damaged[i] {
			want = append(want, scans[off:off+int(z.Scans)]...)
		}
		off += int(z.Scans)
	}
	if len(got) != len(want) {
		t.Fatalf("degraded read emitted %d scans, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("scan %d mismatch after skipping corrupt blocks", i)
		}
	}
	if n := r.CorruptBlocks(); n != uint64(len(damaged)) {
		t.Fatalf("CorruptBlocks = %d, want %d", n, len(damaged))
	}
	if n := reg.Snapshot().Counter("faults.archive.corrupt_blocks"); n != uint64(len(damaged)) {
		t.Fatalf("faults.archive.corrupt_blocks = %d, want %d", n, len(damaged))
	}
}

// TestSkipCorruptIndexStillFatal: degraded mode covers block damage only —
// a broken index means no zone maps to navigate by, so open must still fail.
func TestSkipCorruptIndexStillFatal(t *testing.T) {
	scans, origins := testScans(300, 13)
	data := writeArchive(t, scans, origins, WriterConfig{BlockBytes: 4 << 10})
	bad := append([]byte{}, data...)
	bad[len(bad)-trailerLen-3] ^= 0xff
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SegmentName(1)), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSegment(dir, SegmentName(1), true); err == nil {
		t.Fatal("index damage must fail open even on a skip-corrupt reader")
	}
}

// TestScansContext: a done context aborts the query with its error.
func TestScansContext(t *testing.T) {
	scans, origins := testScans(2000, 14)
	data := writeArchive(t, scans, origins, WriterConfig{BlockBytes: 4 << 10})
	r := openArchive(t, data)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := scan(t, r, ctx, All, func(*core.Scan, *enrich.Origin) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel2()
	if err := scan(t, r, expired, All, func(*core.Scan, *enrich.Origin) {}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}

	n := 0
	if err := scan(t, r, context.Background(), All, func(*core.Scan, *enrich.Origin) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != len(scans) {
		t.Fatalf("background context read %d scans, want %d", n, len(scans))
	}
}

// TestQueryWindow: a consumer slower than the decoders holds a window of
// decoded blocks, not the archive. With emit blocked inside the first block,
// the workers decode the blocks admitted so far — 2×workers at the start, one
// more when the first result was taken — and then wait, holding one row set
// per block: 2×workers+1 sets with the caller's, made afresh here because the
// free list was emptied first. Cancelling the query there still returns the
// context's error with every worker joined.
func TestQueryWindow(t *testing.T) {
	scans, origins := testScans(6000, 15)
	data := writeArchive(t, scans, origins, WriterConfig{Origins: true, BlockBytes: 4 << 10})
	for _, workers := range []int{1, 3} {
		r := openArchive(t, data)
		r.SetWorkers(workers)
		window := uint64(2*workers + 1)
		if uint64(r.NumBlocks()) < 4*window {
			t.Fatalf("%d blocks: too few to tell a window of %d from the archive", r.NumBlocks(), window)
		}
		reg := obs.NewRegistry()
		r.SetMetrics(reg)
		decoded := func() uint64 { return reg.Snapshot().Histograms["archive.decompress_ns"].Count }

		for len(rowsFree) > 0 {
			<-rowsFree
		}
		made := rowsMade.Load()

		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		entered, release := make(chan struct{}), make(chan struct{})
		emitted := 0
		done := make(chan error, 1)
		go func() {
			done <- r.Query(ctx, All, func(*core.Scan, *enrich.Origin) {
				if emitted++; emitted == 1 {
					close(entered)
					<-release
				}
			})
		}()
		<-entered
		for deadline := time.Now().Add(5 * time.Second); decoded() < window; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d blocks decoded, the window of %d never filled", workers, decoded(), window)
			}
		}
		time.Sleep(20 * time.Millisecond) // long enough to decode the rest of the archive, were anything to
		if n := decoded(); n != window {
			t.Fatalf("workers=%d: %d blocks decoded behind a blocked emit, want the window of %d", workers, n, window)
		}
		if n := rowsMade.Load() - made; n != window {
			t.Fatalf("workers=%d: %d row sets in flight behind a blocked emit, want the window of %d", workers, n, window)
		}

		cancel()
		close(release)
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled query returned %v", workers, err)
		}
		if first := int(r.Blocks()[0].Scans); emitted != first {
			t.Fatalf("workers=%d: %d scans emitted, want the first block's %d", workers, emitted, first)
		}
		settleGoroutines(t, base, "after the cancelled query")
		if n := decoded(); n != window {
			t.Fatalf("workers=%d: %d blocks decoded after cancellation, %d before", workers, n, window)
		}
	}
}

// TestEmptyArchiveFile: the zero-block case through the file-based
// Create/Open path — a working reader whose queries emit nothing and
// return nil, with and without degraded mode.
func TestEmptyArchiveFile(t *testing.T) {
	dir := t.TempDir()
	w, err := createSegment(dir, 1, SegmentConfig{TelescopeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.seal(); err != nil {
		t.Fatal(err)
	}
	r, err := openSegment(dir, SegmentName(1), true)
	if err != nil {
		t.Fatalf("opening a zero-block segment: %v", err)
	}
	defer r.Close()
	if r.NumBlocks() != 0 || r.NumScans() != 0 || r.TelescopeSize() != 64 {
		t.Fatalf("blocks %d scans %d telescope %d", r.NumBlocks(), r.NumScans(), r.TelescopeSize())
	}
	if err := scan(t, r, context.Background(), All, func(*core.Scan, *enrich.Origin) {
		t.Fatal("emit on empty archive")
	}); err != nil {
		t.Fatal(err)
	}
	if r.CorruptBlocks() != 0 {
		t.Fatalf("CorruptBlocks = %d on pristine empty file", r.CorruptBlocks())
	}
}

// TestWriterCloseIdempotent: Close decides its result once; later calls
// replay it without emitting a second index/trailer (which would corrupt the
// file for readers) and Add keeps failing. Regression test for the double-
// Close path, companion to the Add-after-Close check below.
func TestWriterCloseIdempotent(t *testing.T) {
	scans, _ := testScans(500, 21)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterConfig{TelescopeSize: 4096, BlockBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scans {
		if err := w.Add(sc); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	for i := 0; i < 3; i++ {
		if err := w.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+2, err)
		}
	}
	if buf.Len() != size {
		t.Fatalf("repeated Close grew the stream by %d bytes", buf.Len()-size)
	}
	if err := w.Add(scans[0]); err == nil {
		t.Fatal("Add after Close succeeded")
	}
	r := openArchive(t, buf.Bytes())
	n := 0
	if err := scan(t, r, context.Background(), All, func(*core.Scan, *enrich.Origin) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != len(scans) {
		t.Fatalf("read %d scans, want %d", n, len(scans))
	}
}

// TestWriterCloseErrorStable: a Close that fails keeps returning that same
// error, and the underlying file is released exactly once.
func TestWriterCloseErrorStable(t *testing.T) {
	w, err := NewWriter(failWriter{}, WriterConfig{TelescopeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	scans, _ := testScans(1, 22)
	if err := w.Add(scans[0]); err != nil {
		t.Fatal(err)
	}
	first := w.Close()
	if first == nil {
		t.Fatal("Close over a failing writer returned nil")
	}
	if again := w.Close(); again != first {
		t.Fatalf("second Close returned %v, first returned %v", again, first)
	}
}

// failWriter fails every write once the bufio buffer flushes.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }
