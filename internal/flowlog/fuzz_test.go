package flowlog

import (
	"bytes"
	"io"
	"testing"

	"github.com/synscan/synscan/internal/faultinject"
	"github.com/synscan/synscan/internal/packet"
)

// FuzzReader hardens the spool parser: whatever the bytes, NewReader and Next
// return — a record, io.EOF or an error — without panicking, and every record
// consumes at least a one-byte timestamp and the fixed body, so a stream
// cannot hold more records than its length allows.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 4096)
	for i := 0; i < 5; i++ {
		p := packet.Probe{Time: int64(i) * 1e9, Src: uint32(i), Flags: packet.FlagSYN, Proto: 6}
		w.Write(&p)
	}
	w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:headerLen])
	f.Add(valid[:len(valid)-5])
	corrupt := append([]byte{}, valid...)
	corrupt[4] = 99 // bad version
	f.Add(corrupt)
	// Seeded fault-injection corpora: scattered flips past the spool header,
	// and a corrupting-reader pass over the whole stream.
	for seed := uint64(1); seed <= 3; seed++ {
		flipped := append([]byte{}, valid...)
		faultinject.FlipBytes(flipped, seed, 3*int(seed), headerLen, 0)
		f.Add(flipped)
		noisy, err := io.ReadAll(faultinject.NewReader(bytes.NewReader(valid), faultinject.ReaderConfig{
			Seed: seed, CorruptRate: 0.02 * float64(seed), CorruptStart: headerLen,
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
		var p packet.Probe
		for i := 1; i <= 10000; i++ {
			if err := r.Next(&p); err != nil {
				return
			}
			if headerLen+i*(1+recordBodyLen) > len(data) {
				t.Fatalf("%d records from a %d-byte stream", i, len(data))
			}
		}
	})
}
