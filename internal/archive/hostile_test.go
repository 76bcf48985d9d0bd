package archive

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sync"
	"testing"

	"github.com/synscan/synscan/internal/alloctest"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
)

// hostileBlock is one block taken apart for tampering: its zone map, its
// directory as (stored, raw) length pairs and its strips' stored streams.
type hostileBlock struct {
	zone    ZoneMap
	dir     [numStrips][2]uint32
	streams [numStrips][]byte
}

// blockPayload is the stored payload of the block of archive data that z indexes.
func blockPayload(data []byte, z ZoneMap) []byte {
	return data[int(z.Offset)+blockCRCLen:][:z.CompressedLen]
}

// takeApart splits that payload along its directory.
func takeApart(data []byte, z ZoneMap) hostileBlock {
	h, payload := hostileBlock{zone: z}, blockPayload(data, z)
	off := dirLen
	for s := 0; s < numStrips; s++ {
		h.dir[s] = [2]uint32{binary.BigEndian.Uint32(payload[8*s:]), binary.BigEndian.Uint32(payload[8*s+4:])}
		h.streams[s] = payload[off : off+int(h.dir[s][0])]
		off += int(h.dir[s][0])
	}
	return h
}

// deflaters recycles deflated's compressors. Reset makes one what
// flate.NewWriter would, so the streams do not change; a fresh one is about a
// megabyte of state, which under -race cost more to allocate than to use.
var deflaters = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(nil, flate.DefaultCompression) // errors on an invalid level only
	return fw
}}

// deflated returns b as a DEFLATE stream.
func deflated(tb testing.TB, b []byte) []byte {
	var out bytes.Buffer
	fw := deflaters.Get().(*flate.Writer)
	defer deflaters.Put(fw)
	fw.Reset(&out)
	fw.Write(b)
	if err := fw.Close(); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// setStrip stores raw as strip i, directory entry and RawLen in step.
func (h *hostileBlock) setStrip(tb testing.TB, i int, raw []byte) {
	h.zone.RawLen += uint32(len(raw)) - h.dir[i][1]
	h.streams[i] = deflated(tb, raw)
	h.dir[i] = [2]uint32{uint32(len(h.streams[i])), uint32(len(raw))}
}

// setStream stores stream as strip i's, the directory's raw length as it was.
func (h *hostileBlock) setStream(i int, stream []byte) {
	h.streams[i] = stream
	h.dir[i][0] = uint32(len(stream))
}

// tampered rebuilds archive data with block k passed through tamper: every
// checksum, offset and length of the file is right again afterwards, so what
// the reader meets is a well-formed file holding one ill-formed block.
func tampered(tb testing.TB, data []byte, k int, tamper func(h *hostileBlock, strips *[numStrips][]byte)) []byte {
	r := openArchive(tb, data)
	out := append([]byte(nil), data[:headerLen]...)
	var index []byte
	zones := r.Blocks()
	index = binary.BigEndian.AppendUint32(index, uint32(len(zones)))
	for i, z := range zones {
		payload := blockPayload(data, z)
		if i == k {
			h := takeApart(data, z)
			sc := getScratch()
			if err := r.readBlock(&z, sc, AllFields); err != nil {
				tb.Fatal(err)
			}
			tamper(&h, &sc.strips)
			sc.release()
			payload = nil
			for s := range h.dir {
				payload = binary.BigEndian.AppendUint32(payload, h.dir[s][0])
				payload = binary.BigEndian.AppendUint32(payload, h.dir[s][1])
			}
			for _, st := range h.streams {
				payload = append(payload, st...)
			}
			z = h.zone
		}
		z.Offset, z.CompressedLen = uint64(len(out)), uint32(len(payload))
		out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
		out = append(out, payload...)
		index = z.marshal(index)
	}
	tr := binary.BigEndian.AppendUint64(nil, uint64(len(out)))
	tr = binary.BigEndian.AppendUint32(tr, uint32(len(index)))
	tr = binary.BigEndian.AppendUint32(tr, crc32.ChecksumIEEE(index))
	return append(append(out, index...), append(tr, TrailerMagic[:]...)...)
}

// hostileFile is a well-formed archive of several blocks whose second block
// is ill-formed in the way its name says.
type hostileFile struct {
	name string
	data []byte
}

// hostileFiles returns one hostileFile per way a block can be ill-formed. (A
// directory holds lengths, not offsets: strips cannot be made to overlap, only
// to claim more or less than there is.)
func hostileFiles(tb testing.TB) []hostileFile {
	scans, origins := testScans(400, 17)
	valid := writeArchive(tb, scans, origins, WriterConfig{TelescopeSize: 4096, Origins: true, BlockBytes: 4 << 10})
	if n := openArchive(tb, valid).NumBlocks(); n < 3 {
		tb.Fatalf("%d blocks, want at least 3", n)
	}
	uv := binary.AppendUvarint
	type strips = *[numStrips][]byte
	cases := []struct {
		name   string
		tamper func(h *hostileBlock, strips strips)
	}{
		{"stored lengths past the payload", func(h *hostileBlock, _ strips) { h.dir[stripSrc][0] += 1000 }},
		{"stored lengths short of the payload", func(h *hostileBlock, _ strips) { h.dir[stripSrc][0]-- }},
		{"stored length wraps 32 bits", func(h *hostileBlock, _ strips) {
			h.dir[stripStart][0], h.dir[stripDuration][0] = 1<<32-1, h.dir[stripStart][0]+h.dir[stripDuration][0]+1
		}},
		{"raw lengths past RawLen", func(h *hostileBlock, _ strips) { h.dir[stripRate][1]++ }},
		{"raw lengths short of RawLen", func(h *hostileBlock, _ strips) { h.zone.RawLen += 7 }},
		{"raw length no stream can inflate to", func(h *hostileBlock, _ strips) {
			grow := (maxInflation+1)*h.dir[stripTool][0] - h.dir[stripTool][1]
			h.dir[stripTool][1] += grow
			h.zone.RawLen += grow
		}},
		{"raw lengths a thousandfold", func(h *hostileBlock, _ strips) {
			h.zone.RawLen = 0
			for s := range h.dir {
				h.dir[s][1] = 1000 * h.dir[s][0]
				h.zone.RawLen += h.dir[s][1]
			}
			h.zone.Scans = h.zone.RawLen / minRecordBytes
		}},
		{"strip inflates short", func(h *hostileBlock, strips strips) {
			raw := strips[stripRate]
			h.setStrip(tb, stripRate, raw[:len(raw)-1])
			h.dir[stripRate][1]++
			h.zone.RawLen++
		}},
		{"strip inflates long", func(h *hostileBlock, strips strips) {
			h.setStrip(tb, stripRate, append(strips[stripRate][:len(strips[stripRate]):len(strips[stripRate])], 0))
			h.dir[stripRate][1]--
			h.zone.RawLen--
		}},
		{"strip a record short", func(h *hostileBlock, strips strips) {
			h.setStrip(tb, stripTool, strips[stripTool][1:])
		}},
		{"strip a record long", func(h *hostileBlock, strips strips) {
			h.setStrip(tb, stripSrc, append(strips[stripSrc][:len(strips[stripSrc]):len(strips[stripSrc])], 1, 2, 3, 4))
		}},
		{"scan count past the strips", func(h *hostileBlock, _ strips) { h.zone.Scans++ }},
		{"scan count no block holds", func(h *hostileBlock, _ strips) { h.zone.Scans = h.zone.RawLen }},
		{"country id out of range", func(h *hostileBlock, strips strips) {
			// The first record defines entry 0; here it names entry 5.
			h.setStrip(tb, stripCountry, append(uv(nil, 5), strips[stripCountry][1:]...))
		}},
		{"organization id out of int16", func(h *hostileBlock, strips strips) {
			entry := uv(uv(nil, 0), zigzag(1<<15))
			h.setStrip(tb, stripOrg, append(append(entry, 0), strips[stripOrg]...))
		}},
		{"port deltas past 65535", func(h *hostileBlock, strips strips) {
			ports := uv(uv(uv(nil, 2), 65535), 1)
			h.setStrip(tb, stripPorts, append(ports, strips[stripPorts]...))
		}},
		{"port count past 65536", func(h *hostileBlock, strips strips) {
			h.setStrip(tb, stripPorts, append(uv(nil, 65537), strips[stripPorts]...))
		}},
		{"handshake packets past packets", func(h *hostileBlock, strips strips) {
			phase := uv(uv(uv([]byte{1}, 0), 1<<40), 0)
			h.setStrip(tb, stripPhase, append(phase, strips[stripPhase]...))
		}},
		{"overlong varint", func(h *hostileBlock, strips strips) {
			h.setStrip(tb, stripDsts, append(bytes.Repeat([]byte{0x80}, 10), strips[stripDsts]...))
		}},
		// Stored strips (what the writer emits for a strip DEFLATE cannot
		// shrink), ill-formed one way each; src is four bytes a record and far
		// under one stored block here.
		{"stored strip: LEN is not ~NLEN", func(h *hostileBlock, strips strips) {
			stream := storedBlocks(strips[stripSrc])
			stream[3] ^= 0x01
			h.setStream(stripSrc, stream)
		}},
		{"stored strip: LEN past the end of the stream", func(h *hostileBlock, strips strips) {
			raw := strips[stripSrc]
			h.setStream(stripSrc, storedBlocks(append(raw[:len(raw):len(raw)], 0))[:5+len(raw)])
		}},
		{"stored strip a byte short", func(h *hostileBlock, strips strips) {
			raw := strips[stripSrc]
			h.setStream(stripSrc, storedBlocks(raw[:len(raw)-1]))
		}},
		{"stored strip a byte long", func(h *hostileBlock, strips strips) {
			raw := strips[stripSrc]
			h.setStream(stripSrc, storedBlocks(append(raw[:len(raw):len(raw)], 0)))
		}},
		{"stored strip: no final block", func(h *hostileBlock, strips strips) {
			stream := storedBlocks(strips[stripSrc])
			stream[0] &^= 0x01 // BFINAL
			h.setStream(stripSrc, stream)
		}},
		{"stored strip: reserved block type", func(h *hostileBlock, strips strips) {
			stream := storedBlocks(strips[stripSrc])
			stream[0] |= 0x06 // BTYPE 11
			h.setStream(stripSrc, stream)
		}},
	}
	files := make([]hostileFile, len(cases))
	for i, c := range cases {
		files[i] = hostileFile{c.name, tampered(tb, valid, 1, c.tamper)}
	}
	return files
}

// TestHostileBlocks: a block that is ill-formed behind a valid checksum — a
// crafted file, or a writer bug — is ErrCorrupt for the default reader and
// exactly one counted skip, with every other block streamed, for a
// skip-corrupt one; and what a reader allocates for it is clamped whatever
// lengths it claims.
func TestHostileBlocks(t *testing.T) {
	for _, f := range hostileFiles(t) {
		name, data := f.name, f.data
		zones := openArchive(t, data).Blocks()
		noop := func(*core.Scan, *enrich.Origin) {}
		err := scan(t, openArchive(t, data), context.Background(), All, noop)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: the default reader returned %v, want ErrCorrupt", name, err)
		}
		r := openSkipCorrupt(t, data)
		r.SetWorkers(1)
		n := 0
		if err := scan(t, r, context.Background(), All, func(*core.Scan, *enrich.Origin) { n++ }); err != nil {
			t.Errorf("%s: the degraded reader returned %v", name, err)
		}
		want := 0
		for i, z := range zones {
			if i != 1 {
				want += int(z.Scans)
			}
		}
		if r.CorruptBlocks() != 1 || n != want {
			t.Errorf("%s: %d blocks skipped and %d scans emitted, want 1 and the other blocks' %d", name, r.CorruptBlocks(), n, want)
		}
		_, perQuery := alloctest.Measure(3, func() { r.Query(context.Background(), All, noop) })
		if limit := float64(6 * DefaultBlockBytes); perQuery > limit {
			t.Errorf("%s: a query allocates %.0f bytes, want at most %.0f", name, perQuery, limit)
		}
	}
}
