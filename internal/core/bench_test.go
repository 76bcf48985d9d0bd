package core

import "testing"

// BenchmarkDetectorIngest is the steady-state half of the stage ledger's
// core.absorb_ns_per_pkt: one op is one pass of TestAllocBudgetAbsorb's warm
// stream, a Detector.Ingest per probe into flows that never close.
func BenchmarkDetectorIngest(b *testing.B) {
	w := newWarm(NewDetector(Config{TelescopeSize: testTelescopeSize}, nil))
	b.ReportAllocs()
	b.SetBytes(int64(len(w.stream)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.pass()
	}
}

// BenchmarkDetectorChurn is the other half of core.absorb_ns_per_pkt: flows
// opening and closing. One op is one flow's whole life as
// TestAllocBudgetChurn drives it (churn.flow). The ingest workloads close a
// flow every ≈ 53 packets.
func BenchmarkDetectorChurn(b *testing.B) {
	c := &churn{d: NewDetector(Config{TelescopeSize: testTelescopeSize}, nil)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.flow()
	}
}

// The BenchmarkAblationExpiry pair backs EXPERIMENTS.md "Ablations": the
// same 100 000 probes from 8 192 live sources through the LRU-expiring
// Detector and through the NaiveDetector's sweep on every probe.
func BenchmarkAblationExpiryLRU(b *testing.B) {
	benchmarkExpiry(b, func() Ingester { return NewDetector(Config{TelescopeSize: testTelescopeSize}, nil) })
}

func BenchmarkAblationExpirySweep(b *testing.B) {
	benchmarkExpiry(b, func() Ingester { return NewNaiveDetector(Config{TelescopeSize: testTelescopeSize}, nil) })
}

func benchmarkExpiry(b *testing.B, mk func() Ingester) {
	stream := makeMixedStream(100000, 8192, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := mk()
		for j := range stream {
			d.Ingest(&stream[j])
		}
		d.FlushAll()
	}
}
