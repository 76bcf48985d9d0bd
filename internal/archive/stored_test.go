package archive

import (
	"bytes"
	"compress/flate"
	"context"
	"io"
	"reflect"
	"testing"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
)

// blockApart is block k of archive data, split along its directory.
func blockApart(tb testing.TB, data []byte, k int) hostileBlock {
	return takeApart(data, openArchive(tb, data).Blocks()[k])
}

// storedLen is what raw bytes take as DEFLATE stored blocks: five bytes of
// framing for every 65 535 of them.
func storedLen(raw uint32) uint32 { return raw + 5*((raw+65534)/65535) }

// TestStoredFallback: a strip DEFLATE cannot shrink by an eighth is written as
// stored blocks and one it can is deflated, strip by strip within one block;
// the directory says which; and the result is a block like any other to
// Reader.Query, to RawBlock and — being DEFLATE — to compress/flate.
func TestStoredFallback(t *testing.T) {
	// One block of 20 000 records: random sources, four bytes each, make a
	// strip that needs two stored blocks; one rate throughout makes a strip
	// that deflates to almost nothing; without origins the last three strips
	// are empty.
	scans, _ := testScans(20000, 71)
	for _, sc := range scans {
		sc.RatePPS = 1234.5
	}
	data := writeArchive(t, scans, nil, WriterConfig{TelescopeSize: 4096, BlockBytes: 4 << 20})
	r := openArchive(t, data)
	if r.NumBlocks() != 1 {
		t.Fatalf("%d blocks, want the one", r.NumBlocks())
	}
	h := blockApart(t, data, 0)

	if src := h.dir[stripSrc]; src[1] != 4*20000 || src[0] != storedLen(src[1]) || src[0] != src[1]+10 {
		t.Errorf("src: %d stored for %d raw bytes, want two stored blocks' %d", src[0], src[1], storedLen(src[1]))
	}
	if rate := h.dir[stripRate]; rate[1] != 8*20000 || rate[0] > rate[1]/8 {
		t.Errorf("rate: %d stored for %d raw bytes, want a deflated stream", rate[0], rate[1])
	}
	for _, s := range []int{stripCountry, stripASN, stripOrg} {
		if h.dir[s] != [2]uint32{} || len(h.streams[s]) != 0 {
			t.Errorf("%s: directory entry %v for an empty strip, want no stream", stripNames[s], h.dir[s])
		}
	}
	// Whichever way the writer went for the other strips, it kept to its rule
	// and its bound: a stream is the stored framing exactly, or at least an
	// eighth under the strip.
	for s, e := range h.dir {
		if e[1] > 0 && e[0] != storedLen(e[1]) && e[0] > e[1]-e[1]/8 {
			t.Errorf("%s: %d stored for %d raw bytes is neither", stripNames[s], e[0], e[1])
		}
	}

	// compress/flate reads every stream to the strip RawBlock hands out.
	var raw []byte
	if err := r.RawBlock(0, func(b []byte) error { raw = append(raw, b...); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(raw) != int(h.zone.RawLen) {
		t.Fatalf("RawBlock gave %d bytes, the index says %d", len(raw), h.zone.RawLen)
	}
	for s, stream := range h.streams {
		want := raw[:h.dir[s][1]]
		raw = raw[h.dir[s][1]:]
		if len(stream) == 0 {
			continue
		}
		got, err := io.ReadAll(flate.NewReader(bytes.NewReader(stream)))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: compress/flate read %d bytes (err %v), RawBlock %d", stripNames[s], len(got), err, len(want))
		}
	}

	var got []*core.Scan
	if err := scan(t, r, context.Background(), All, func(sc *core.Scan, _ *enrich.Origin) { got = append(got, sc) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, scans) {
		t.Fatal("the block does not round-trip")
	}
}
