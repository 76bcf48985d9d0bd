package faultinject

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/synscan/synscan/internal/rng"
)

// ShardStaller injects deterministic processing stalls into individual
// shards of the sharded campaign detector. Its Stall method is the
// StallHook of core's package-internal sharded-detector config (core's
// stall tests wire it in): each shard draws from its own seeded
// stream, so which batches stall is reproducible per shard regardless of
// cross-shard scheduling. Safe for concurrent use — the hook is called from
// every shard goroutine.
//
// Stalls exercise two properties the detector must keep under uneven shard
// progress: Ingest backpressure (a stalled shard's bounded queue fills and
// blocks the router instead of growing without bound) and the merging
// flush's determinism (the emitted campaign multiset and order must not
// depend on which shard lagged).
type ShardStaller struct {
	rate   float64
	stall  time.Duration
	seed   uint64
	stalls atomic.Uint64

	mu   sync.Mutex
	rnds map[int]*rng.Rand
}

// NewShardStaller stalls a shard for the given duration with probability
// rate at each processed message.
func NewShardStaller(seed uint64, rate float64, stall time.Duration) *ShardStaller {
	return &ShardStaller{rate: rate, stall: stall, seed: seed, rnds: make(map[int]*rng.Rand)}
}

// Stall is the sharded detector's StallHook entry point: it decides from
// the shard's seeded stream whether this message stalls, and sleeps if so.
func (st *ShardStaller) Stall(shard int) {
	st.mu.Lock()
	r := st.rnds[shard]
	if r == nil {
		r = rng.New(st.seed).DeriveN("faultinject/stall", uint64(shard))
		st.rnds[shard] = r
	}
	hit := r.Bool(st.rate)
	st.mu.Unlock()
	if hit {
		st.stalls.Add(1)
		time.Sleep(st.stall)
	}
}

// Stalls returns the number of stalls injected so far.
func (st *ShardStaller) Stalls() uint64 { return st.stalls.Load() }
