package archive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/fingerprint"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
)

// testScans builds n deterministic scans spread over years 2015-2024, all
// six tools, varied port sets and the full source space.
func testScans(n int, seed uint64) ([]*core.Scan, []enrich.Origin) {
	r := rng.New(seed)
	scans := make([]*core.Scan, 0, n)
	origins := make([]enrich.Origin, 0, n)
	for i := 0; i < n; i++ {
		year := 2015 + i%10
		start := time.Date(year, time.February, 1, 0, 0, 0, 0, time.UTC).UnixNano() +
			r.Int63n(int64(100*24)*int64(time.Hour))
		nPorts := 1 + int(r.Uint32()%5)
		ports := make([]uint16, 0, nPorts)
		p := uint16(r.Uint32() % 1000)
		for j := 0; j < nPorts; j++ {
			p += uint16(1 + r.Uint32()%500)
			ports = append(ports, p)
		}
		sc := &core.Scan{
			Src:          r.Uint32(),
			Start:        start,
			End:          start + r.Int63n(int64(time.Hour)),
			Packets:      uint64(1 + r.Uint32()%100000),
			DistinctDsts: 1 + int(r.Uint32()%4096),
			Ports:        ports,
			Tool:         tools.Tool(i % 7),
			Qualified:    i%3 != 0,
			RatePPS:      math.Abs(r.NormFloat64()) * 5000,
			Coverage:     float64(r.Uint32()%1000) / 1000,
			ISN:          fingerprint.ISNClass(i % 4),
		}
		if i%4 == 0 {
			sc.TwoPhase = true
			sc.ISN = fingerprint.ISNMixed
			sc.LinkedDsts = 1 + int(r.Uint32()%64)
			sc.HandshakePackets = uint64(r.Uint32()) % sc.Packets
			sc.PayloadBytes = uint64(r.Uint32() % 4096)
			sc.Payload = []byte{0x16, 0x03, 0x01, byte(i)}
		}
		sc.ScoutPackets = sc.Packets - sc.HandshakePackets
		scans = append(scans, sc)
		origins = append(origins, enrich.Origin{
			Country: fmt.Sprintf("C%d", i%13),
			ASN:     r.Uint32() % 70000,
			Type:    inetmodel.ScannerType(i % 5),
			OrgID:   int16(i%20 - 1),
			OrgName: fmt.Sprintf("org-%d", i%20),
		})
	}
	return scans, origins
}

func writeArchive(t testing.TB, scans []*core.Scan, origins []enrich.Origin, cfg WriterConfig) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range scans {
		if cfg.Origins {
			err = w.AddWithOrigin(sc, origins[i])
		} else {
			err = w.Add(sc)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openArchive(t testing.TB, data []byte) *Reader {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// openSkipCorrupt opens data as a skip-corrupt reader, the way a catalog
// with CatalogConfig.SkipCorrupt opens its segments.
func openSkipCorrupt(t testing.TB, data []byte) *Reader {
	t.Helper()
	r := openArchive(t, data)
	r.skipCorrupt = true
	return r
}

// TestRoundTrip: every archived scan (and origin) comes back bit-identical,
// in archived order, through the worker-pool reader.
func TestRoundTrip(t *testing.T) {
	for _, withOrigins := range []bool{false, true} {
		t.Run(fmt.Sprintf("origins=%v", withOrigins), func(t *testing.T) {
			scans, origins := testScans(5000, 1)
			data := writeArchive(t, scans, origins, WriterConfig{
				TelescopeSize: 4096, Origins: withOrigins, BlockBytes: 8 << 10,
			})
			r := openArchive(t, data)
			if r.TelescopeSize() != 4096 {
				t.Fatalf("telescope size %d", r.TelescopeSize())
			}
			if r.HasOrigins() != withOrigins {
				t.Fatalf("HasOrigins = %v", r.HasOrigins())
			}
			if r.NumScans() != 5000 {
				t.Fatalf("NumScans = %d", r.NumScans())
			}
			if r.NumBlocks() < 4 {
				t.Fatalf("expected multiple blocks, got %d", r.NumBlocks())
			}
			var gotScans []*core.Scan
			var gotOrigins []enrich.Origin
			if err := scan(t, r, context.Background(), All, func(sc *core.Scan, o *enrich.Origin) {
				gotScans = append(gotScans, sc.Clone())
				if (o != nil) != withOrigins {
					t.Fatalf("origin %v from an archive with origins=%v", o, withOrigins)
				}
				if o != nil {
					gotOrigins = append(gotOrigins, *o)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if len(gotScans) != len(scans) {
				t.Fatalf("got %d scans, want %d", len(gotScans), len(scans))
			}
			for i := range scans {
				if !reflect.DeepEqual(scans[i], gotScans[i]) {
					t.Fatalf("scan %d mismatch:\n got %+v\nwant %+v", i, gotScans[i], scans[i])
				}
				if withOrigins && origins[i] != gotOrigins[i] {
					t.Fatalf("origin %d mismatch: got %+v want %+v", i, gotOrigins[i], origins[i])
				}
			}
		})
	}
}

// TestFilterMatchesLinearScan: for a spread of filters, the pruned
// worker-pool read returns exactly what a full read plus per-scan filter
// returns, in the same order.
func TestFilterMatchesLinearScan(t *testing.T) {
	scans, origins := testScans(4000, 2)
	data := writeArchive(t, scans, origins, WriterConfig{
		TelescopeSize: 4096, Origins: true, BlockBytes: 4 << 10,
	})
	r := openArchive(t, data)

	pfx := inetmodel.Prefix{Base: 0x40000000, Bits: 4} // 64.0.0.0/4
	filters := []Filter{
		{},
		{Years: []int{2020}},
		{Years: []int{2016, 2021}},
		{Tools: []tools.Tool{tools.ToolZMap}},
		{Years: []int{2019}, Tools: []tools.Tool{tools.ToolMirai, tools.ToolNMap}},
		{Ports: []uint16{scans[17].Ports[0]}},
		{QualifiedOnly: true},
		{MinRate: 1000},
		{MaxRate: 500},
		{MinRate: 100, MaxRate: 4000, QualifiedOnly: true},
		{SrcPrefix: &pfx},
		{Years: []int{2023}, QualifiedOnly: true, SrcPrefix: &pfx},
	}
	for fi, f := range filters {
		var want []*core.Scan
		for _, sc := range scans {
			if f.MatchScan(sc) {
				want = append(want, sc)
			}
		}
		var got []*core.Scan
		if err := scan(t, r, context.Background(), &f, func(sc *core.Scan, _ *enrich.Origin) {
			got = append(got, sc.Clone())
		}); err != nil {
			t.Fatalf("filter %d: %v", fi, err)
		}
		if len(got) != len(want) {
			t.Fatalf("filter %d: got %d scans, want %d", fi, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("filter %d: scan %d mismatch", fi, i)
			}
		}
	}
}

// TestZoneMapPruning: a selective filter must scan strictly fewer blocks
// than a full read, and skipped+scanned must cover the file.
func TestZoneMapPruning(t *testing.T) {
	scans, origins := testScans(6000, 3)
	// Archive in start-time order, the order a detector run produces: blocks
	// then cover narrow time ranges and the year/tool zone maps have
	// resolution to prune on.
	sortScansByStart(scans)
	data := writeArchive(t, scans, origins, WriterConfig{
		TelescopeSize: 4096, BlockBytes: 4 << 10,
	})
	r := openArchive(t, data)
	reg := obs.NewRegistry()
	r.SetMetrics(reg)

	n := 0
	if err := scan(t, r, context.Background(), &Filter{Years: []int{2020}, Tools: []tools.Tool{tools.ToolZMap}},
		func(sc *core.Scan, _ *enrich.Origin) { n++ }); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	scanned := snap.Counter("archive.blocks.scanned")
	skipped := snap.Counter("archive.blocks.skipped")
	if scanned+skipped < uint64(r.NumBlocks()) {
		t.Fatalf("scanned %d + skipped %d < blocks %d", scanned, skipped, r.NumBlocks())
	}
	if skipped == 0 {
		t.Fatalf("zone maps pruned nothing (scanned %d, skipped %d, blocks %d)",
			scanned, skipped, r.NumBlocks())
	}
	if scanned >= uint64(r.NumBlocks()) {
		t.Fatalf("filtered query scanned every block (%d of %d)", scanned, r.NumBlocks())
	}
	if n == 0 {
		t.Fatal("filtered query matched nothing")
	}
}

func sortScansByStart(scans []*core.Scan) {
	sort.Slice(scans, func(i, j int) bool { return scans[i].Start < scans[j].Start })
}

// TestOriginsMismatchedAdd: Add/AddWithOrigin enforce the file mode.
func TestOriginsMismatchedAdd(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterConfig{Origins: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(&core.Scan{}); err == nil {
		t.Fatal("Add on an origins archive should fail")
	}
	w2, err := NewWriter(&buf, WriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.AddWithOrigin(&core.Scan{}, enrich.Origin{}); err == nil {
		t.Fatal("AddWithOrigin on an origin-less archive should fail")
	}
}

// TestCorruption: trailer, index and block damage surface errors, never
// panics or silent truncation.
func TestCorruption(t *testing.T) {
	scans, origins := testScans(500, 4)
	data := writeArchive(t, scans, origins, WriterConfig{BlockBytes: 4 << 10})

	t.Run("short", func(t *testing.T) {
		if _, err := NewReader(bytes.NewReader(data[:8]), 8); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("magic", func(t *testing.T) {
		bad := append([]byte{}, data...)
		bad[0] = 'X'
		if _, err := NewReader(bytes.NewReader(bad), int64(len(bad))); err != ErrBadMagic {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte{}, data...)
		bad[4] = 99
		if _, err := NewReader(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("got %v, want ErrBadVersion", err)
		}
	})
	t.Run("index-crc", func(t *testing.T) {
		bad := append([]byte{}, data...)
		bad[len(bad)-trailerLen-3] ^= 0xff // inside the index
		if _, err := NewReader(bytes.NewReader(bad), int64(len(bad))); err == nil {
			t.Fatal("want checksum error")
		}
	})
	t.Run("block-body", func(t *testing.T) {
		bad := append([]byte{}, data...)
		bad[headerLen+10] ^= 0xff // inside the first block
		r, err := NewReader(bytes.NewReader(bad), int64(len(bad)))
		if err != nil {
			t.Fatal(err)
		}
		if err := scan(t, r, context.Background(), All, func(*core.Scan, *enrich.Origin) {}); err == nil {
			t.Fatal("want block decode error")
		}
	})
}

// TestEmptyArchive: zero scans is a valid file.
func TestEmptyArchive(t *testing.T) {
	data := writeArchive(t, nil, nil, WriterConfig{TelescopeSize: 128})
	r := openArchive(t, data)
	if r.NumBlocks() != 0 || r.NumScans() != 0 {
		t.Fatalf("blocks %d scans %d", r.NumBlocks(), r.NumScans())
	}
	if err := scan(t, r, context.Background(), All, func(*core.Scan, *enrich.Origin) {
		t.Fatal("emit on empty archive")
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWriterMetrics: the writer reports blocks/bytes/scans.
func TestWriterMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	scans, origins := testScans(1000, 5)
	writeArchive(t, scans, origins, WriterConfig{BlockBytes: 4 << 10, Metrics: reg})
	snap := reg.Snapshot()
	if got := snap.Counter("archive.scans.written"); got != 1000 {
		t.Fatalf("scans.written = %d", got)
	}
	if snap.Counter("archive.blocks.written") == 0 {
		t.Fatal("no blocks reported")
	}
	if snap.Counter("archive.bytes.compressed") == 0 ||
		snap.Counter("archive.bytes.raw") == 0 {
		t.Fatal("no bytes reported")
	}
	if snap.Counter("archive.strips.stored") == 0 || snap.Counter("archive.strips.deflated") == 0 {
		t.Fatal("random sources and cycling tools: strips of both kinds were expected")
	}
	if snap.Counter("archive.bytes.compressed") >= snap.Counter("archive.bytes.raw") {
		t.Fatal("compression made the blocks bigger on redundant input")
	}
}
