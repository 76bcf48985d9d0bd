package tools

import (
	"testing"

	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/rng"
)

func TestScanIPv4Sharded(t *testing.T) {
	r := rng.New(4)
	pr := NewZMap(1, r.Derive("prober"))
	const shards = 4
	const limit = 2000
	seen := make(map[uint32]int)
	for s := 0; s < shards; s++ {
		// All shards derive their permutation from the same seed, like
		// zmap --seed across shard instances.
		ScanIPv4Sharded(pr, 443, s, shards, limit, rng.New(55), func(p packet.Probe) {
			if p.DstPort != 443 {
				t.Fatal("port mismatch")
			}
			if prev, dup := seen[p.Dst]; dup {
				t.Fatalf("address scanned by shards %d and %d", prev, s)
			}
			seen[p.Dst] = s
		})
	}
	if len(seen) != shards*limit {
		t.Fatalf("%d distinct targets, want %d", len(seen), shards*limit)
	}
}
