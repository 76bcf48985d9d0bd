package archive

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
)

// role is a test predicate of the whole projection whose filter reads the
// strips in filter and keeps what keep says.
type role struct {
	filter Fields
	keep   func(sc *core.Scan) bool
}

func (p role) MatchBlock(*ZoneMap) bool                   { return true }
func (p role) Match(sc *core.Scan, _ *enrich.Origin) bool { return p.keep(sc) }
func (p role) Fields() Fields                             { return AllFields }
func (p role) MatchFields() Fields                        { return p.filter }

// firstRecord is the length of the first record of strip i in raw.
func firstRecord(i int, raw []byte) int {
	if i == stripPhase {
		_, at := uvarint(raw, 1)
		_, at = uvarint(raw, at)
		_, at = uvarint(raw, at)
		return at
	}
	_, at := uvarint(raw, 0)
	return at
}

// TestCorruptStripEitherRole: the decoder makes each of its checks on every
// record, whichever way the strip it checks is decoded — first, for every
// record, as a strip the filter reads, or late, walked over every record for
// the ones the filter kept, when it kept some and when it kept none. Each
// block below fails one check in its second block: the default reader
// returns ErrCorrupt, a WithSkipCorrupt one skips that block whole and
// streams the others' matches, and the block's row set is left without rows.
func TestCorruptStripEitherRole(t *testing.T) {
	scans, origins := testScans(400, 17)
	valid := writeArchive(t, scans, origins, WriterConfig{TelescopeSize: 4096, Origins: true, BlockBytes: 4 << 10})
	uv := binary.AppendUvarint
	type strips = *[numStrips][]byte
	// replaceFirst gives strip i's first record the bytes rec.
	replaceFirst := func(tb testing.TB, h *hostileBlock, st strips, i int, rec []byte) {
		raw := st[i]
		h.setStrip(tb, i, append(rec, raw[firstRecord(i, raw):]...))
	}
	cases := []struct {
		name   string
		strip  int // the strip that fails, or -1: the block fails before any decodes
		tamper func(h *hostileBlock, st strips)
	}{
		{"uvarint overflow", stripDsts, func(h *hostileBlock, st strips) {
			h.setStrip(t, stripDsts, append(bytes.Repeat([]byte{0xff}, 9), append([]byte{0x02}, st[stripDsts][1:]...)...))
		}},
		{"uvarint cut short", stripPackets, func(h *hostileBlock, st strips) {
			raw := st[stripPackets]
			h.setStrip(t, stripPackets, append(raw[:len(raw)-1:len(raw)-1], 0x80))
		}},
		{"fixed-width strip a record short", stripCoverage, func(h *hostileBlock, st strips) {
			raw := st[stripCoverage]
			h.setStrip(t, stripCoverage, raw[:len(raw)-8])
		}},
		{"strip past its last record", stripStart, func(h *hostileBlock, st strips) {
			h.setStrip(t, stripStart, append(st[stripStart][:len(st[stripStart]):len(st[stripStart])], 0x01))
		}},
		{"distinct destinations past MaxInt32", stripDsts, func(h *hostileBlock, st strips) {
			replaceFirst(t, h, st, stripDsts, uv(nil, 1<<31))
		}},
		{"linked destinations past MaxInt32", stripPhase, func(h *hostileBlock, st strips) {
			replaceFirst(t, h, st, stripPhase, uv(uv(uv([]byte{0}, 1<<31), 0), 0))
		}},
		{"port count past 65536", stripPorts, func(h *hostileBlock, st strips) {
			replaceFirst(t, h, st, stripPorts, uv(nil, 65537))
		}},
		{"running port past 65535", stripPorts, func(h *hostileBlock, st strips) {
			replaceFirst(t, h, st, stripPorts, uv(uv(uv(nil, 2), 65535), 1))
		}},
		{"handshake packets past packets", stripPhase, func(h *hostileBlock, st strips) {
			replaceFirst(t, h, st, stripPhase, uv(uv(uv([]byte{1}, 0), 1<<40), 0))
		}},
		{"country used before it is defined", stripCountry, func(h *hostileBlock, st strips) {
			replaceFirst(t, h, st, stripCountry, uv(nil, 1)) // the first record defines entry 0
		}},
		{"organization id past int16", stripOrg, func(h *hostileBlock, st strips) {
			replaceFirst(t, h, st, stripOrg, append(uv(uv(nil, 0), zigzag(1<<15)), 0))
		}},
		{"more records than bytes", -1, func(h *hostileBlock, _ strips) { h.zone.Scans = h.zone.RawLen }},
	}
	counts := openArchive(t, valid).Blocks() // records per block, before any tampering
	evenSrc := func(sc *core.Scan) bool { return sc.Src%2 == 0 }
	evenStart := func(sc *core.Scan) bool { return sc.Start%2 == 0 }
	none := func(*core.Scan) bool { return false }
	for _, c := range cases {
		data := tampered(t, valid, 1, c.tamper)
		blocks := openArchive(t, data).Blocks()
		damaged := Fields(0)
		if c.strip >= 0 {
			damaged = 1 << c.strip
		}
		// The filter strip the late roles decode first, and what it keeps.
		other, keep := FieldSrc, evenSrc
		if damaged == FieldSrc {
			other, keep = FieldStart, evenStart
		}
		for _, r := range []struct {
			name string
			p    role
		}{
			{"filter strip", role{damaged | other, keep}},
			{"late strip", role{other, keep}},
			{"late strip, no record kept", role{other, none}},
		} {
			name := c.name + ", " + r.name
			if err := scan(t, openArchive(t, data), context.Background(), r.p, func(*core.Scan, *enrich.Origin) {}); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: the default reader returned %v, want ErrCorrupt", name, err)
			}

			rd, err := NewReader(bytes.NewReader(data), int64(len(data)), WithSkipCorrupt())
			if err != nil {
				t.Fatal(err)
			}
			rd.SetWorkers(1)
			n := 0
			if err := scan(t, rd, context.Background(), r.p, func(*core.Scan, *enrich.Origin) { n++ }); err != nil {
				t.Errorf("%s: the degraded reader returned %v", name, err)
			}
			want, first := 0, 0
			for b, z := range counts {
				for _, sc := range scans[first : first+int(z.Scans)] {
					if b != 1 && r.p.keep(sc) {
						want++
					}
				}
				first += int(z.Scans)
			}
			if rd.CorruptBlocks() != 1 || n != want {
				t.Errorf("%s: %d blocks skipped and %d scans emitted, want 1 and the other blocks' %d", name, rd.CorruptBlocks(), n, want)
			}

			rw := getRows(AllFields)
			err = openArchive(t, data).decodeBlock(&blocks[1], r.p, rw)
			if !errors.Is(err, ErrCorrupt) || rw.n != 0 {
				t.Errorf("%s: decodeBlock returned %v and left %d rows, want ErrCorrupt and none", name, err, rw.n)
			}
			for i, held := range []int{len(rw.start), len(rw.dur), len(rw.src), len(rw.packets), len(rw.dsts),
				len(rw.portEnd) + len(rw.ports), len(rw.tool), len(rw.rate), len(rw.coverage), len(rw.phase),
				len(rw.payloadEnd) + len(rw.payload), len(rw.country), len(rw.asn), len(rw.org)} {
				if held != 0 {
					t.Errorf("%s: the failed block left %d entries in its %s column", name, held, stripNames[i])
				}
			}
			rw.release()
		}
	}
}
