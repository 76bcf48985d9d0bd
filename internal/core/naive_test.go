package core

import (
	"reflect"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
)

// orderedSYNStream is sixteen sources of every tool probing in strict time
// order, with jumps past the expiry window to force closures.
func orderedSYNStream() []packet.Probe {
	r := rng.New(5)
	probers := make([]tools.Prober, 16)
	for i := range probers {
		tool := tools.Tools[i%len(tools.Tools)]
		probers[i] = tools.NewProber(tool, uint32(i+1), r.DeriveN("p", uint64(i)))
	}
	var stream []packet.Probe
	tm := int64(0)
	for i := 0; i < 5000; i++ {
		src := i % len(probers)
		p := probers[src].Probe(uint32(0xC0000000|i), uint16(80+i%3))
		tm += int64(r.Intn(50)) * int64(time.Millisecond)
		if i%977 == 0 && i > 0 {
			tm += 2 * int64(time.Hour)
		}
		p.Time = tm
		stream = append(stream, p)
	}
	return stream
}

// TestNaiveDetectorEquivalence holds the LRU detector to the sweep-based
// oracle on whole scans: every field of every closed flow, and the counters,
// over an ordered SYN-only stream and batchCorpora's four (mixed tools,
// same-source runs with phase-two segments, reordered + skewed, dropped +
// duplicated). The reordered corpus is the one an LRU list that is not kept
// in end order gets wrong: a flow touched by a late probe hides behind
// younger flows and swallows the source's next campaign.
func TestNaiveDetectorEquivalence(t *testing.T) {
	cfg := Config{TelescopeSize: testTelescopeSize}
	corpora := batchCorpora()
	corpora["ordered"] = orderedSYNStream()
	for name, stream := range corpora {
		t.Run(name, func(t *testing.T) {
			lru, lruCounts := runSequential(t, cfg, stream)
			var ref []*Scan
			naive := NewNaiveDetector(cfg, func(s *Scan) { ref = append(ref, s) })
			for i := range stream {
				naive.Ingest(&stream[i])
			}
			naive.FlushAll()
			var naiveCounts [3]uint64
			naiveCounts[0], naiveCounts[1], naiveCounts[2] = naive.Counts()
			if lruCounts != naiveCounts {
				t.Fatalf("counts (opened, closed, qualified): lru %v, naive %v", lruCounts, naiveCounts)
			}
			got, want := canonicalScans(lru), canonicalScans(ref)
			if len(got) != len(want) {
				t.Fatalf("closed flows: lru %d, naive %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(*got[i], *want[i]) {
					t.Fatalf("scan %d differs:\n lru:   %+v\n naive: %+v", i, *got[i], *want[i])
				}
			}
		})
	}
}

func TestNaiveDetectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero TelescopeSize must panic")
		}
	}()
	NewNaiveDetector(Config{}, nil)
}

func TestNaiveDetectorActiveFlows(t *testing.T) {
	d := NewNaiveDetector(Config{TelescopeSize: 1000}, nil)
	p := packet.Probe{Time: 1, Src: 7, Dst: 9, DstPort: 80, Flags: packet.FlagSYN}
	d.Ingest(&p)
	if d.ActiveFlows() != 1 {
		t.Fatal("flow not opened")
	}
	d.FlushAll()
	if d.ActiveFlows() != 0 {
		t.Fatal("flush incomplete")
	}
}
