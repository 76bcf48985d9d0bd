package pcapng

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"github.com/synscan/synscan/internal/faultinject"
)

// FuzzReader hardens the pcapng block parser: whatever the bytes, NewReader
// and Next return — a packet, io.EOF or an error — without panicking, every
// packet consumes at least a minimal block of input, and no packet holds more
// than the block length bound.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 1)
	if err != nil {
		f.Fatal(err)
	}
	w.WritePacket(1e9, []byte{1, 2, 3})
	w.WritePacket(2e9, bytes.Repeat([]byte{9}, 60))
	w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:12])
	f.Add(valid[:len(valid)-3])
	b := newBuilder(binary.LittleEndian)
	b.sectionHeader()
	b.interfaceDesc(1, nil)
	b.enhancedPacket(0, 1, []byte{1, 2, 3})
	handBuilt := b.buf.Bytes()
	f.Add(handBuilt)
	f.Add(handBuilt[:13])
	// Seeded fault-injection corpora: scattered flips past the magic, and a
	// corrupting-reader pass over the whole stream.
	for seed := uint64(1); seed <= 3; seed++ {
		flipped := append([]byte{}, valid...)
		faultinject.FlipBytes(flipped, seed, 4*int(seed), 4, 0)
		f.Add(flipped)
		noisy, err := io.ReadAll(faultinject.NewReader(bytes.NewReader(valid), faultinject.ReaderConfig{
			Seed: seed, CorruptRate: 0.01 * float64(seed), CorruptStart: 4,
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
			_, pkt, _, err := r.Next()
			if err != nil {
				return
			}
			if i*12 > len(data) { // type, length and trailer words: the smallest block
				t.Fatalf("%d packets from a %d-byte stream", i, len(data))
			}
			if len(pkt) > 1<<24 || len(pkt) > len(data) {
				t.Fatalf("packet %d holds %d bytes of a %d-byte stream", i-1, len(pkt), len(data))
			}
		}
	})
}
