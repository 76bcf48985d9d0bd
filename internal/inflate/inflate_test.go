package inflate

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math/rand"
	"testing"

	"github.com/synscan/synscan/internal/alloctest"
)

// deflate compresses data with the standard library writer at the given
// level — the exact producer the archive writer uses.
func deflate(t *testing.T, data []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corpus builds inputs that force every block type out of the writer:
// stored (incompressible at level 0 and random data), fixed and dynamic
// Huffman, runs that exercise long matches and every repeat code.
func corpus() map[string][]byte {
	rng := rand.New(rand.NewSource(41))
	random := make([]byte, 96<<10)
	rng.Read(random)

	runs := make([]byte, 64<<10)
	for i := range runs {
		runs[i] = byte(i / 997)
	}

	text := bytes.Repeat([]byte("SYN scan telescope record: src=203.0.113.7 dst=198.51.100.9 port=443 flags=S\n"), 700)

	skewed := make([]byte, 48<<10)
	for i := range skewed {
		// Heavily skewed symbol distribution: long Huffman codes for the
		// rare symbols, exercising deep table entries.
		if rng.Intn(100) == 0 {
			skewed[i] = byte(rng.Intn(256))
		} else {
			skewed[i] = byte(rng.Intn(4))
		}
	}

	return map[string][]byte{
		"empty":  {},
		"single": {0x42},
		"random": random,
		"runs":   runs,
		"text":   text,
		"skewed": skewed,
	}
}

// TestDecodeMatchesFlate is the differential contract: every stream the
// standard writer produces, at every level, decodes byte-identically to
// compress/flate — through one reused Decoder.
func TestDecodeMatchesFlate(t *testing.T) {
	var d Decoder
	levels := []int{flate.NoCompression, flate.BestSpeed, 3, 6, flate.BestCompression, flate.HuffmanOnly}
	for name, data := range corpus() {
		for _, level := range levels {
			comp := deflate(t, data, level)
			got, err := d.AppendDecode(nil, comp, len(data)+1)
			if err != nil {
				t.Fatalf("%s/level=%d: %v", name, level, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/level=%d: decode mismatch (%d bytes, want %d)", name, level, len(got), len(data))
			}
		}
	}
}

// TestAppendDecodeAppends: output lands after existing dst content, and the
// limit counts the whole slice.
func TestAppendDecodeAppends(t *testing.T) {
	var d Decoder
	data := []byte("payload after prefix")
	comp := deflate(t, data, 6)
	prefix := []byte("prefix:")
	got, err := d.AppendDecode(prefix, comp, len(prefix)+len(data)+1)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("prefix:"), data...)
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	if _, err := d.AppendDecode(prefix, comp, len(prefix)+len(data)-1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("limit counting prefix: err = %v, want ErrTooLarge", err)
	}
}

// TestLimit: decoding stops with ErrTooLarge the moment output would exceed
// the cap, for both literal-heavy and match-heavy streams.
func TestLimit(t *testing.T) {
	var d Decoder
	for name, data := range corpus() {
		if len(data) < 2 {
			continue
		}
		comp := deflate(t, data, 6)
		if _, err := d.AppendDecode(nil, comp, len(data)-1); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%s: err = %v, want ErrTooLarge", name, err)
		}
		// Exact-size limit succeeds: the cap is a ceiling, not a headroom.
		if _, err := d.AppendDecode(nil, comp, len(data)); err != nil {
			t.Fatalf("%s: exact limit failed: %v", name, err)
		}
	}
}

// TestTruncatedAndCorrupt: damaged streams error, never panic, never succeed
// with silently wrong lengths the caller can't detect.
func TestTruncatedAndCorrupt(t *testing.T) {
	var d Decoder
	data := corpus()["text"]
	comp := deflate(t, data, 6)
	for cut := 0; cut < len(comp); cut += 17 {
		if _, err := d.AppendDecode(nil, comp[:cut], len(data)+1); err == nil {
			t.Fatalf("truncation at %d decoded cleanly to full length", cut)
		}
	}
	for i := 0; i < len(comp); i += 13 {
		bad := append([]byte(nil), comp...)
		bad[i] ^= 0xff
		got, err := d.AppendDecode(nil, bad, len(data)+1)
		// A flip may survive decode (it only changes literals); then the
		// output length/content differs and the archive's block CRC and
		// strip-length checks catch it. What must not happen is a panic.
		if err == nil && len(got) == len(data) && bytes.Equal(got, data) {
			t.Fatalf("flip at %d decoded to identical output", i)
		}
	}
}

// TestDegenerateDistanceCode: compress/flate emits dynamic blocks whose
// distance alphabet has a single 1-bit code (an incomplete coding DEFLATE
// explicitly allows). A stream of distinct bytes with one long match forces
// that shape; it must decode.
func TestDegenerateDistanceCode(t *testing.T) {
	var d Decoder
	data := make([]byte, 0, 3000)
	for i := 0; i < 300; i++ {
		data = append(data, byte(i), byte(i>>3), byte(i*7))
	}
	data = append(data, data[:300]...)
	comp := deflate(t, data, flate.BestCompression)
	got, err := d.AppendDecode(nil, comp, len(data)+1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decode mismatch")
	}
}

// TestAllocBudgetInflate: a warmed Decoder with a pre-sized dst performs
// zero allocations per stream — the property the archive's
// "archive-block-read" budget rests on.
func TestAllocBudgetInflate(t *testing.T) {
	var d Decoder
	data := corpus()["text"]
	comp := deflate(t, data, 6)
	dst := make([]byte, 0, len(data)+1)
	alloctest.Check(t, "inflate-stream", 0, func() {
		out, err := d.AppendDecode(dst[:0], comp, len(data)+1)
		if err != nil || len(out) != len(data) {
			t.Fatalf("decode failed: %v (%d bytes)", err, len(out))
		}
	})
}

// FuzzInflate drives both directions: arbitrary bytes compressed with the
// standard writer must round-trip through the Decoder, and arbitrary bytes
// treated as a DEFLATE stream must never panic — and whenever compress/flate
// accepts them, the Decoder must produce identical output.
func FuzzInflate(f *testing.F) {
	f.Add([]byte{}, 6)
	f.Add([]byte("hello hello hello hello"), 1)
	f.Add(bytes.Repeat([]byte{0xab}, 4096), 9)
	f.Add([]byte{0x03, 0x00}, 6) // empty fixed-Huffman stream
	f.Fuzz(func(t *testing.T, data []byte, level int) {
		var d Decoder

		// Direction 1: round-trip through the standard writer.
		lvl := level%10 - 1 // [-1,8]: HuffmanOnly through BestCompression-1
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, lvl)
		if err == nil {
			w.Write(data)
			w.Close()
			got, err := d.AppendDecode(nil, buf.Bytes(), len(data)+1)
			if err != nil {
				t.Fatalf("level %d: %v", lvl, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("level %d: round-trip mismatch", lvl)
			}
		}

		// Direction 2: the raw input as a stream. Cap output to keep crafted
		// expansion bombs bounded, exactly as the archive does.
		const cap = 1 << 20
		got, gotErr := d.AppendDecode(nil, data, cap)
		ref, refErr := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(data)), cap))
		if refErr == nil && len(ref) < cap {
			if gotErr != nil {
				t.Fatalf("flate accepts, inflate rejects: %v", gotErr)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("output mismatch: %d vs %d bytes", len(got), len(ref))
			}
		}
	})
}
