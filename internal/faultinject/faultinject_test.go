package faultinject

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/packet"
)

func testPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

// Corruption must be a function of (seed, offset) only: reading the same
// stream through different chunk sizes must yield identical bytes.
func TestReaderCorruptionChunkingIndependent(t *testing.T) {
	src := testPayload(4096)
	cfg := ReaderConfig{Seed: 42, CorruptRate: 0.05}

	read := func(chunk int) []byte {
		r := NewReader(bytes.NewReader(src), cfg)
		var out []byte
		buf := make([]byte, chunk)
		for {
			n, err := r.Read(buf)
			out = append(out, buf[:n]...)
			if err != nil {
				break
			}
		}
		return out
	}

	a, b := read(1), read(1024)
	if !bytes.Equal(a, b) {
		t.Fatal("corruption depends on read chunking")
	}
	if bytes.Equal(a, src) {
		t.Fatal("CorruptRate=0.05 over 4 KiB corrupted nothing")
	}
	diff := 0
	for i := range a {
		if a[i] != src[i] {
			diff++
		}
	}
	if diff < 100 || diff > 350 {
		t.Fatalf("%d corrupted bytes, want ~205 (5%% of 4096)", diff)
	}
}

func TestReaderCorruptRegion(t *testing.T) {
	src := testPayload(4096)
	r := NewReader(bytes.NewReader(src), ReaderConfig{
		Seed: 7, CorruptRate: 1, CorruptStart: 100, CorruptEnd: 200,
	})
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		in := i >= 100 && i < 200
		if (out[i] != src[i]) != in {
			t.Fatalf("byte %d corrupted=%v, want %v", i, out[i] != src[i], in)
		}
	}
}

func TestReaderTruncateAndFail(t *testing.T) {
	src := testPayload(1000)
	out, err := io.ReadAll(NewReader(bytes.NewReader(src), ReaderConfig{TruncateAt: 333}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, src[:333]) {
		t.Fatalf("truncated read returned %d bytes, want 333 intact", len(out))
	}

	out, err = io.ReadAll(NewReader(bytes.NewReader(src), ReaderConfig{FailAt: 100}))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !bytes.Equal(out, src[:100]) {
		t.Fatalf("failing read delivered %d bytes before the error, want 100", len(out))
	}
}

func TestReaderShortReads(t *testing.T) {
	src := testPayload(500)
	r := NewReader(bytes.NewReader(src), ReaderConfig{Seed: 3, ShortReads: true})
	buf := make([]byte, 256)
	var out []byte
	sawShort := false
	for {
		n, err := r.Read(buf)
		if n > 8 {
			t.Fatalf("short-read mode delivered %d bytes", n)
		}
		if n > 0 && n < 256 {
			sawShort = true
		}
		out = append(out, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawShort || !bytes.Equal(out, src) {
		t.Fatalf("short reads lost data: got %d bytes", len(out))
	}
}

// TestWriterFailsFromNthWrite: calls before the failure point pass through
// untouched, that call and every later one write nothing, and all are counted.
func TestWriterFailsFromNthWrite(t *testing.T) {
	var dry bytes.Buffer
	w := NewWriter(&dry, 0)
	for i := 0; i < 5; i++ {
		if _, err := w.Write([]byte{byte(i)}); err != nil {
			t.Fatalf("dry run write %d: %v", i, err)
		}
	}
	if w.Writes() != 5 || dry.Len() != 5 {
		t.Fatalf("dry run: %d writes, %d bytes, want 5 and 5", w.Writes(), dry.Len())
	}

	var out bytes.Buffer
	w = NewWriter(&out, 3)
	for i := 0; i < 5; i++ {
		n, err := w.Write([]byte{byte(i)})
		if failed := i >= 2; failed != errors.Is(err, ErrInjectedWrite) || (failed && n != 0) {
			t.Fatalf("write %d: n=%d err=%v", i+1, n, err)
		}
	}
	if w.Writes() != 5 || !bytes.Equal(out.Bytes(), []byte{0, 1}) {
		t.Fatalf("%d writes counted, %v delivered", w.Writes(), out.Bytes())
	}
}

func TestFlipBytes(t *testing.T) {
	src := testPayload(1024)
	data := append([]byte(nil), src...)
	pos := FlipBytes(data, 9, 10, 100, 600)
	if len(pos) != 10 {
		t.Fatalf("%d positions, want 10", len(pos))
	}
	flipped := map[int]bool{}
	for i, p := range pos {
		if p < 100 || p >= 600 {
			t.Fatalf("position %d outside [100, 600)", p)
		}
		if i > 0 && pos[i-1] >= p {
			t.Fatal("positions not ascending and distinct")
		}
		flipped[p] = true
	}
	for i := range data {
		if (data[i] != src[i]) != flipped[i] {
			t.Fatalf("byte %d changed=%v, flipped=%v", i, data[i] != src[i], flipped[i])
		}
	}

	again := append([]byte(nil), src...)
	pos2 := FlipBytes(again, 9, 10, 100, 600)
	if !bytes.Equal(again, data) {
		t.Fatal("FlipBytes is not deterministic")
	}
	for i := range pos {
		if pos[i] != pos2[i] {
			t.Fatal("FlipBytes positions are not deterministic")
		}
	}
}

func streamRun(seed uint64, n int, cfg StreamConfig) ([]packet.Probe, StreamStats) {
	cfg.Seed = seed
	s := NewStream(cfg)
	var out []packet.Probe
	emit := func(p *packet.Probe) { out = append(out, *p) }
	for i := 0; i < n; i++ {
		p := packet.Probe{
			Time: int64(i) * 1e6, Src: uint32(i % 17), Dst: uint32(i),
			DstPort: uint16(i % 3), Flags: packet.FlagSYN,
		}
		s.Apply(&p, emit)
	}
	s.Flush(emit)
	return out, s.Stats()
}

func TestStreamMutatorDeterministicAndAccounted(t *testing.T) {
	cfg := StreamConfig{
		DropRate: 0.1, DupRate: 0.05, ReorderRate: 0.2,
		SkewRate: 0.3, MaxSkew: int64(time.Second),
	}
	a, sa := streamRun(11, 2000, cfg)
	b, sb := streamRun(11, 2000, cfg)
	if len(a) != len(b) || sa != sb {
		t.Fatalf("same seed diverged: %d vs %d probes, %+v vs %+v", len(a), len(b), sa, sb)
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("probe %d differs between identical runs", i)
		}
	}
	if sa.In != 2000 {
		t.Fatalf("In = %d", sa.In)
	}
	if want := sa.In - sa.Dropped + sa.Duplicated; sa.Out != want {
		t.Fatalf("Out = %d, want In-Dropped+Duplicated = %d", sa.Out, want)
	}
	if uint64(len(a)) != sa.Out {
		t.Fatalf("emitted %d probes, stats say %d", len(a), sa.Out)
	}
	if sa.Dropped == 0 || sa.Duplicated == 0 || sa.Reordered == 0 || sa.Skewed == 0 {
		t.Fatalf("some fault kind never fired: %+v", sa)
	}

	c, sc := streamRun(12, 2000, cfg)
	if len(c) == len(a) && sc == sa {
		t.Fatal("different seeds produced identical mutation schedules")
	}
}

func TestStreamZeroConfigIsTransparent(t *testing.T) {
	out, st := streamRun(5, 100, StreamConfig{})
	if len(out) != 100 || st.Out != 100 || st.Dropped+st.Duplicated+st.Reordered+st.Skewed != 0 {
		t.Fatalf("zero config mutated the stream: %d probes, %+v", len(out), st)
	}
	for i, p := range out {
		if p.Dst != uint32(i) {
			t.Fatalf("zero config reordered: probe %d has Dst %d", i, p.Dst)
		}
	}
}

func TestShardStallerDeterministicPerShard(t *testing.T) {
	run := func() uint64 {
		st := NewShardStaller(21, 0.3, time.Microsecond)
		for shard := 0; shard < 4; shard++ {
			for i := 0; i < 50; i++ {
				st.Stall(shard)
			}
		}
		return st.Stalls()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("stall counts differ between identical runs: %d vs %d", a, b)
	}
	if a == 0 || a == 200 {
		t.Fatalf("stall count %d of 200, want partial", a)
	}
}
