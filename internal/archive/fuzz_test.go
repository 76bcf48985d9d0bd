package archive

import (
	"bytes"
	"context"
	"io"
	"testing"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/faultinject"
)

// FuzzReader hardens the whole read path — header, trailer, index, strip
// directory, decompression and the strip walk: arbitrary bytes must never
// panic or allocate absurdly, and a valid archive must keep round-tripping.
func FuzzReader(f *testing.F) {
	scans, origins := testScans(64, 7)
	valid := writeArchive(f, scans, origins, WriterConfig{
		TelescopeSize: 4096, Origins: true, BlockBytes: 1 << 10,
	})
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:headerLen])
	f.Add(valid[:len(valid)-3])
	corrupt := append([]byte{}, valid...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)
	noOrigins := writeArchive(f, scans, nil, WriterConfig{BlockBytes: 1 << 10})
	f.Add(noOrigins)
	// A header of the last row-major version (refused at open), and the
	// ill-formed blocks behind valid checksums of TestHostileBlocks, which
	// byte flips alone do not get past the CRC to reach.
	v3 := append([]byte{}, valid...)
	v3[4] = 3
	f.Add(v3)
	for _, hostile := range hostileFiles(f) {
		f.Add(hostile.data)
	}
	// Seeded fault-injection corpora: scattered byte flips across the whole
	// file, and a stream passed through the corrupting reader wrapper — the
	// damage patterns real storage produces, at several densities.
	for seed := uint64(1); seed <= 3; seed++ {
		flipped := append([]byte{}, valid...)
		faultinject.FlipBytes(flipped, seed, 8*int(seed), 0, 0)
		f.Add(flipped)
		noisy, err := io.ReadAll(faultinject.NewReader(bytes.NewReader(valid), faultinject.ReaderConfig{
			Seed: seed, CorruptRate: 0.002 * float64(seed),
		}))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(noisy)
		truncated, err := io.ReadAll(faultinject.NewReader(bytes.NewReader(valid), faultinject.ReaderConfig{
			Seed: seed, TruncateAt: int64(len(valid)) / (1 + int64(seed)),
		}))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(truncated)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		for _, skipCorrupt := range []bool{false, true} {
			r.skipCorrupt = skipCorrupt
			n := 0
			_ = r.Query(context.Background(), All, func(sc *core.Scan, _ *enrich.Origin) {
				n++
				if n > 1<<20 {
					t.Fatal("unbounded emit")
				}
				_ = sc.Duration()
			})
		}
	})
}
