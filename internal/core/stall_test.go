package core

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/faultinject"
)

// TestShardedStallHookDeterminism: a seeded ShardStaller wired into
// StallHook delays random shards, which exercises backpressure (stalled
// queues fill and block Ingest) and moves every release — yet both runs
// must emit the canonical sort of the sequential output, as emitted.
func TestShardedStallHookDeterminism(t *testing.T) {
	stream := makeMixedStream(8000, 300, 11)
	cfg := shardedConfig{
		Config:  Config{TelescopeSize: testTelescopeSize},
		Workers: 4,
		// Small batches + shallow queues so stalls actually push back on
		// the router instead of hiding in buffering.
		BatchSize:         32,
		QueueDepth:        2,
		WatermarkInterval: int64(10 * time.Minute),
	}
	_, clean := runSharded(t, cfg, stream)

	staller := faultinject.NewShardStaller(3, 0.2, 200*time.Microsecond)
	cfg.StallHook = staller.Stall
	_, stalled := runSharded(t, cfg, stream)

	if staller.Stalls() == 0 {
		t.Fatal("staller never fired; the test exercised nothing")
	}
	seq, _ := runSequential(t, cfg.Config, stream)
	want := canonicalScans(seq)
	sameScans(t, "clean", want, clean)
	sameScans(t, "stalled", want, stalled)
}

// TestStallHookShardIndexes: the hook sees only valid shard indexes and is
// called from every shard that received work.
func TestStallHookShardIndexes(t *testing.T) {
	const workers = 4
	var calls [workers]atomic.Uint64
	cfg := shardedConfig{
		Config:    Config{TelescopeSize: testTelescopeSize},
		Workers:   workers,
		BatchSize: 16,
		StallHook: func(shard int) {
			if shard < 0 || shard >= workers {
				panic("stall hook saw out-of-range shard index")
			}
			calls[shard].Add(1)
		},
	}
	stream := makeMixedStream(4000, 200, 5)
	_, _ = runSharded(t, cfg, stream)
	for i := range calls {
		if calls[i].Load() == 0 {
			t.Fatalf("shard %d never invoked the stall hook", i)
		}
	}
}
