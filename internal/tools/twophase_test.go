package tools

import (
	"bytes"
	"fmt"
	"testing"
)

// payloadClasses is one port of each kind of first message PayloadFor
// knows: HTTP, TLS, SSH, Telnet, SMTP, Redis, and the opaque blob.
var payloadClasses = []uint16{80, 443, 22, 23, 25, 6379, 9999}

// TestPayloadForOneAllocation: each push's payload is one allocation, the
// slice the caller keeps, whatever its port.
func TestPayloadForOneAllocation(t *testing.T) {
	for _, port := range payloadClasses {
		seed := uint32(0x1234abcd)
		if n := testing.AllocsPerRun(100, func() { PayloadFor(port, seed) }); n != 1 {
			t.Errorf("port %d: %v allocations per payload, want 1", port, n)
		}
	}
}

// TestPayloadForText: the text payloads are byte for byte the formatted
// strings they stand for, at every width of the seed's low half, and sized
// to them exactly.
func TestPayloadForText(t *testing.T) {
	formats := map[uint16]string{
		80: "GET / HTTP/1.1\r\nHost: %d.probe\r\n\r\n", 8080: "GET / HTTP/1.1\r\nHost: %d.probe\r\n\r\n",
		22: "SSH-2.0-probe_%d\r\n",
		25: "EHLO host%d\r\n", 587: "EHLO host%d\r\n",
	}
	seeds := []uint32{0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 65535, 65536, 0xffffffff}
	for i := uint32(0); i < 64; i++ { // a sweep across the whole seed range
		seeds = append(seeds, 7+i*(1<<26+12345))
	}
	for port, format := range formats {
		for _, seed := range seeds {
			want := []byte(fmt.Sprintf(format, seed&0xffff))
			got := PayloadFor(port, seed)
			if !bytes.Equal(got, want) {
				t.Fatalf("port %d seed %#x: %q, want %q", port, seed, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("port %d seed %#x: cap %d for %d bytes", port, seed, cap(got), len(got))
			}
		}
	}
}
