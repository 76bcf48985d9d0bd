package synscan

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestFacadeArchiveSkipCorrupt: the degraded-mode surface works end to end
// through the public wrappers — a corrupted archive fails a default reader
// but streams its intact blocks under WithSkipCorrupt, counting the damage.
func TestFacadeArchiveSkipCorrupt(t *testing.T) {
	yd, _ := facadeData(t)
	path := filepath.Join(t.TempDir(), "facade.syna")
	w, err := CreateArchive(path, ArchiveWriterConfig{
		TelescopeSize: 2048, Origins: true, BlockBytes: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ArchiveYear(w, &yd.Campaigns); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	probe, err := OpenArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	zones := probe.Blocks()
	probe.Close()
	if len(zones) < 2 {
		t.Fatalf("archive has %d blocks; need at least 2 to lose one and keep reading", len(zones))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first block's compressed payload (past its
	// 4-byte checksum).
	data[int(zones[0].Offset)+4+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	strict, err := OpenArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	if err := strict.Query(context.Background(), AllScans, func(*Scan, *Origin) {}); err == nil {
		t.Fatal("default reader must fail on a corrupt block")
	}

	rd, err := OpenArchive(path, WithSkipCorrupt())
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	n := 0
	if err := rd.Query(context.Background(), AllScans, func(*Scan, *Origin) { n++ }); err != nil {
		t.Fatalf("skip-corrupt reader errored: %v", err)
	}
	if rd.CorruptBlocks() != 1 {
		t.Fatalf("CorruptBlocks() = %d, want 1", rd.CorruptBlocks())
	}
	if n == 0 || uint64(n) >= rd.NumScans() {
		t.Fatalf("recovered %d of %d scans; want the intact blocks only", n, rd.NumScans())
	}
}
