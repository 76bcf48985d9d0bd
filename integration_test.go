package synscan

// Integration tests across module boundaries: property-based invariants on
// campaign detection driven by random probe streams. (The simulate → capture
// file → parse → detect round trip is internal/capture's
// TestReplayMatchesDirect, one row per format.)

import (
	"testing"
	"testing/quick"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
	"github.com/synscan/synscan/internal/workload"
)

// TestCampaignInvariantsQuick feeds random probe streams through the
// detector and checks structural invariants on every emitted scan.
func TestCampaignInvariantsQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%2000 + 10
		r := rng.New(seed)
		var scans []*core.Scan
		det := core.NewDetector(core.Config{TelescopeSize: 4096},
			func(sc *core.Scan) { scans = append(scans, sc) })
		probers := make([]tools.Prober, 8)
		for i := range probers {
			probers[i] = tools.NewProber(tools.Tools[i%len(tools.Tools)],
				uint32(i+1), r.DeriveN("p", uint64(i)))
		}
		tm := int64(0)
		for i := 0; i < n; i++ {
			p := probers[r.Intn(len(probers))].Probe(r.Uint32(), uint16(r.Intn(100)))
			tm += int64(r.Intn(1e9))
			if r.Intn(100) == 0 {
				tm += 20 * 3600 * 1e9 // force expiries
			}
			p.Time = tm
			det.Ingest(&p)
		}
		det.FlushAll()

		var total uint64
		for _, sc := range scans {
			total += sc.Packets
			if sc.Packets == 0 || sc.Start > sc.End {
				return false
			}
			if uint64(sc.DistinctDsts) > sc.Packets || sc.DistinctDsts == 0 {
				return false
			}
			if sc.Coverage < 0 || sc.Coverage > 1 || sc.RatePPS < 0 {
				return false
			}
			for j := 1; j < len(sc.Ports); j++ {
				if sc.Ports[j] <= sc.Ports[j-1] {
					return false // must be sorted and distinct
				}
			}
			if len(sc.Ports) == 0 || uint64(len(sc.Ports)) > sc.Packets {
				return false
			}
		}
		return total == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestVantageNoiseDeterminism: the vantage observation noise must be a pure
// function of the telescope seed.
func TestVantageNoiseDeterminism(t *testing.T) {
	run := func(telSeed uint64) uint64 {
		s, err := workload.NewScenario(workload.Config{
			Year: 2020, Seed: 9, Scale: 0.0002, TelescopeSize: 2048,
			TelescopeSeed: telSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		var n uint64
		s.Run(func(*packet.Probe) { n++ })
		return n
	}
	a1, a2, b := run(100), run(100), run(200)
	if a1 != a2 {
		t.Fatal("same telescope seed must reproduce the same stream")
	}
	if a1 == b {
		t.Fatal("different telescope seeds should produce different samples")
	}
	// But the expectations match: within a few percent.
	ratio := float64(a1) / float64(b)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("vantage volumes diverge too much: %d vs %d", a1, b)
	}
}
