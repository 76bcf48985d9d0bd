package tools

import (
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/rng"
)

// ScanIPv4Sharded walks the full IPv4 space with ZMap's cyclic-group
// permutation, restricted to one shard of a distributed scan, emitting at
// most limit probes for the given port. This is the faithful Internet-wide
// iteration (used by the sharding example and ablation bench); address
// filtering is the caller's concern.
func ScanIPv4Sharded(pr Prober, port uint16, shard, shards int, limit int, r *rng.Rand, emit func(packet.Probe)) {
	perm := rng.NewCyclicPerm(r).Shard(shard, shards)
	for i := 0; i < limit; i++ {
		addr, done := perm.Next()
		if done {
			return
		}
		emit(pr.Probe(addr, port))
	}
}
