package pcap

import (
	"bytes"
	"io"
	"testing"

	"github.com/synscan/synscan/internal/faultinject"
)

// FuzzReader hardens the pcap parser against malformed capture files:
// whatever the bytes, NewReader and Next return — a record, io.EOF or an
// error — without panicking, every record consumes its header's worth of
// input, and no record holds more than the reader's length bound.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.WritePacket(1e9, []byte{1, 2, 3})
	w.WritePacket(2e9, bytes.Repeat([]byte{9}, 100))
	w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:fileHeaderLen])
	f.Add(valid[:len(valid)-1])
	swapped := append([]byte{}, valid...)
	swapped[0], swapped[3] = swapped[3], swapped[0] // endianness flip
	f.Add(swapped)
	// Seeded fault-injection corpora: scattered flips past the file header,
	// and a corrupting-reader pass over the whole stream.
	for seed := uint64(1); seed <= 3; seed++ {
		flipped := append([]byte{}, valid...)
		faultinject.FlipBytes(flipped, seed, 4*int(seed), fileHeaderLen, 0)
		f.Add(flipped)
		noisy, err := io.ReadAll(faultinject.NewReader(bytes.NewReader(valid), faultinject.ReaderConfig{
			Seed: seed, CorruptRate: 0.02 * float64(seed), CorruptStart: fileHeaderLen,
		}))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(noisy)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 1; i <= 10000; i++ {
			rec, err := r.Next()
			if err != nil {
				return
			}
			if fileHeaderLen+i*recordHeaderLen > len(data) {
				t.Fatalf("%d records from a %d-byte stream", i, len(data))
			}
			if n := len(rec.Data); uint32(n) > r.maxIncl || n > len(data) {
				t.Fatalf("record %d holds %d bytes (snaplen %d, stream %d)", i-1, n, r.Snaplen(), len(data))
			}
		}
	})
}
