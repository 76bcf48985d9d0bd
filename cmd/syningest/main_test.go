package main

// Exec-based drain test: a following syningest daemon must treat SIGTERM as
// a graceful drain — finish what it read, seal the open segment, write the
// manifest, and exit 0 — so supervisors (and the synserve reading the same
// store) never see a torn store or a dirty exit. Run with -short to skip
// (it shells out to the Go toolchain).

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/archive"
)

func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // cmd/syningest -> repo root
}

// Every format tails the same way: there is one reader. Sharded detection
// publishes as flows close too: -workers 2 must seal campaigns before the
// SIGTERM, not only at the final flush.
func TestFollowModeSIGTERMDrains(t *testing.T) {
	for _, tc := range []struct{ format, workers string }{
		{"spool", "1"}, {"pcap", "1"}, {"spool", "2"},
	} {
		name := tc.format
		if tc.workers != "1" {
			name += "/workers=" + tc.workers
		}
		t.Run(name, func(t *testing.T) { followModeDrains(t, tc.format, tc.workers) })
	}
}

func followModeDrains(t *testing.T, format, workers string) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	if runtime.GOOS == "windows" {
		t.Skip("SIGTERM delivery is POSIX-only")
	}
	dir := t.TempDir()
	syntelescope := buildTool(t, dir, "syntelescope")
	syningest := buildTool(t, dir, "syningest")

	spool := filepath.Join(dir, "capture."+format)
	out, err := exec.Command(syntelescope,
		"-format", format, "-year", "2021", "-seed", "5", "-scale", "0.0005",
		"-telescope", "2048", "-out", spool).CombinedOutput()
	if err != nil {
		t.Fatalf("syntelescope: %v\n%s", err, out)
	}

	store := filepath.Join(dir, "store")
	cmd := exec.Command(syningest, "-dir", store, "-telescope", "2048", "-workers", workers,
		"-follow", "-seal-every", "100ms", "-poll", "20ms", spool)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	// Wait until the daemon has ingested and published at least one sealed
	// segment: the concurrent-reader view (exactly what synserve would do).
	deadline := time.Now().Add(30 * time.Second)
	var scans uint64
	for scans == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no sealed scans appeared in %s\nstderr:\n%s", store, stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
		cat, err := archive.OpenCatalog(store, archive.CatalogConfig{})
		if err != nil {
			continue // manifest not written yet
		}
		v := cat.View()
		scans = v.NumScans()
		v.Release()
		cat.Close()
	}

	// The daemon is mid-follow (blocked polling for more spool records).
	// SIGTERM must drain: clean EOF, final seal, manifest write, exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("syningest exit after SIGTERM: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("syningest did not exit within 30s of SIGTERM\nstderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "ingested") {
		t.Fatalf("missing final ingest summary in stderr:\n%s", stderr.String())
	}

	// The drained store is complete and self-consistent: every campaign the
	// daemon reported is queryable from the sealed segments.
	cat, err := archive.OpenCatalog(store, archive.CatalogConfig{})
	if err != nil {
		t.Fatalf("store unreadable after drain: %v", err)
	}
	defer cat.Close()
	v := cat.View()
	defer v.Release()
	if v.NumScans() < scans {
		t.Fatalf("drained store has %d scans, fewer than the %d already sealed pre-drain",
			v.NumScans(), scans)
	}
	if v.Missing() != 0 {
		t.Fatalf("drained store has %d unreadable segments", v.Missing())
	}
}
