package inflate_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/inflate"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
)

// archiveBlocks writes a campaign archive with archive.Writer — varint
// records with origins and phase parts, mostly narrow scans plus a few sweeps
// of thousands of consecutive ports — and returns every strip's DEFLATE
// stream exactly as it sits in the file, with the raw length the block's
// directory records for it. This is the input the decoder sees in production:
// streams of one record part each, from a few hundred bytes of flags to the
// port lists; synthetic text has neither their symbol distributions nor their
// match lengths.
func archiveBlocks(tb testing.TB) (streams [][]byte, rawLens []int) {
	tb.Helper()
	r := rng.New(17)
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf, archive.WriterConfig{TelescopeSize: 4096, Origins: true})
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Date(2019, time.March, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	for i := 0; i < 40000; i++ {
		start += r.Int63n(int64(20 * time.Second))
		nPorts := 1 + int(r.Uint32()%4)
		if i%2500 == 7 {
			nPorts = 6000
		}
		ports := make([]uint16, nPorts)
		p := uint16(r.Uint32() % 2000)
		for j := range ports {
			ports[j] = p
			p += uint16(1 + r.Uint32()%3/2)
		}
		sc := &core.Scan{
			Src: r.Uint32(), Start: start, End: start + r.Int63n(int64(time.Hour)),
			Packets: uint64(1 + r.Uint32()%100000), DistinctDsts: 1 + int(r.Uint32()%4096),
			Ports: ports, Tool: tools.Tool(r.Uint32() % 7), Qualified: i%3 != 0,
			RatePPS: math.Abs(r.NormFloat64()) * 5000, Coverage: float64(r.Uint32()%1000) / 1000,
		}
		if i%4 == 0 {
			sc.TwoPhase, sc.LinkedDsts = true, 1+int(r.Uint32()%64)
			sc.HandshakePackets = uint64(r.Uint32()) % sc.Packets
			sc.PayloadBytes, sc.Payload = uint64(r.Uint32()%4096), []byte{0x16, 0x03, 0x01, byte(i)}
		}
		o := enrich.Origin{
			Country: fmt.Sprintf("C%d", r.Uint32()%40), ASN: r.Uint32() % 70000,
			Type: inetmodel.ScannerType(r.Uint32() % 5), OrgID: -1,
		}
		if i%9 == 0 {
			o.OrgID, o.OrgName = int16(i%20), fmt.Sprintf("org-%d", i%20)
		}
		if err := w.AddWithOrigin(sc, o); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	data := buf.Bytes()
	rd, err := archive.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		tb.Fatal(err)
	}
	// A block is a CRC-32 of its payload, then the payload: a directory of
	// one (stored length, raw length) pair of u32 BE per strip, then the
	// strips' streams in the same order.
	const crcLen, strips = 4, 14
	for _, z := range rd.Blocks() {
		payload := data[int(z.Offset)+crcLen:][:z.CompressedLen]
		off, raw := 8*strips, 0
		for i := 0; i < strips; i++ {
			stored := int(binary.BigEndian.Uint32(payload[8*i:]))
			rawLen := int(binary.BigEndian.Uint32(payload[8*i+4:]))
			if stored > 0 {
				streams = append(streams, payload[off:off+stored])
				rawLens = append(rawLens, rawLen)
			}
			off, raw = off+stored, raw+rawLen
		}
		if off != len(payload) || raw != int(z.RawLen) {
			tb.Fatalf("block at %d: directory covers %d of %d stored and %d of %d raw bytes",
				z.Offset, off, len(payload), raw, z.RawLen)
		}
	}
	if len(streams) < 4*strips {
		tb.Fatalf("archive has %d strips, want several blocks of them", len(streams))
	}
	return streams, rawLens
}

// TestArchiveBlocksMatchFlate: every strip archive.Writer produces inflates
// to exactly what compress/flate makes of it, through one reused Decoder and
// one reused output buffer.
func TestArchiveBlocksMatchFlate(t *testing.T) {
	streams, rawLens := archiveBlocks(t)
	var d inflate.Decoder
	var out []byte
	for i, comp := range streams {
		want, err := io.ReadAll(flate.NewReader(bytes.NewReader(comp)))
		if err != nil {
			t.Fatalf("strip %d: compress/flate: %v", i, err)
		}
		if len(want) != rawLens[i] {
			t.Fatalf("strip %d: compress/flate yields %d bytes, the directory says %d", i, len(want), rawLens[i])
		}
		out, err = d.AppendDecode(out[:0], comp, rawLens[i]+1)
		if err != nil {
			t.Fatalf("strip %d: %v", i, err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("strip %d: output differs from compress/flate (%d vs %d bytes)", i, len(out), len(want))
		}
		if _, err := d.AppendDecode(out[:0], comp, rawLens[i]-1); err != inflate.ErrTooLarge {
			t.Fatalf("strip %d under a short limit: err = %v, want ErrTooLarge", i, err)
		}
	}
}

// BenchmarkInflateArchiveBlock decodes the archive's own strips with this
// package and with compress/flate (reader Reset and reused, its best case);
// MB/s is over inflated bytes.
func BenchmarkInflateArchiveBlock(b *testing.B) {
	streams, rawLens := archiveBlocks(b)
	total, maxRaw := 0, 0
	for _, n := range rawLens {
		total += n
		maxRaw = max(maxRaw, n)
	}
	b.Run("inflate", func(b *testing.B) {
		var d inflate.Decoder
		out := make([]byte, 0, maxRaw+1)
		b.SetBytes(int64(total))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, comp := range streams {
				if _, err := d.AppendDecode(out[:0], comp, rawLens[j]+1); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("compress-flate", func(b *testing.B) {
		src := bytes.NewReader(nil)
		fr := flate.NewReader(src)
		out := bytes.NewBuffer(make([]byte, 0, maxRaw+bytes.MinRead))
		b.SetBytes(int64(total))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, comp := range streams {
				src.Reset(comp)
				fr.(flate.Resetter).Reset(src, nil)
				out.Reset()
				if _, err := out.ReadFrom(fr); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
