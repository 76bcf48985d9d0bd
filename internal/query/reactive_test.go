package query

import (
	"context"
	"testing"

	"github.com/synscan/synscan/internal/fingerprint"
)

// TestReactiveQueryParity: a JSON request over the reactive fields — exactly
// what POST /v1/query receives — parses, executes over an archive carrying
// the phase extension, and agrees with a direct tally over the same scans.
func TestReactiveQueryParity(t *testing.T) {
	scans, origins := genScans(1200, 99)
	rd := openArc(t, writeArc(t, scans, origins, false))

	q, err := Parse([]byte(`{
		"where": {"and": [
			{"field": "two_phase", "eq": true},
			{"field": "isn", "in": ["mixed", "irregular"]},
			{"field": "qualified", "eq": true}
		]},
		"group_by": ["tool"],
		"aggs": [
			{"op": "count"},
			{"op": "sum", "field": "linked_dsts"},
			{"op": "sum", "field": "handshake_packets"},
			{"op": "sum", "field": "payload_bytes"}
		],
		"order_by": "key"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), q, ReaderSource{R: rd})
	if err != nil {
		t.Fatal(err)
	}

	type tally struct{ count, linked, handshake, payload uint64 }
	want := map[uint64]tally{}
	for _, sc := range scans {
		if !sc.TwoPhase || !sc.Qualified ||
			(sc.ISN != fingerprint.ISNMixed && sc.ISN != fingerprint.ISNIrregular) {
			continue
		}
		tl := want[uint64(sc.Tool)]
		tl.count++
		tl.linked += uint64(sc.LinkedDsts)
		tl.handshake += sc.HandshakePackets
		tl.payload += sc.PayloadBytes
		want[uint64(sc.Tool)] = tl
	}
	if len(want) == 0 {
		t.Fatal("generator produced no matching scans; test is vacuous")
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		tl, ok := want[row.Key[0].Num]
		if !ok {
			t.Fatalf("unexpected group %v", row.Key)
		}
		if row.Aggs[0].Count != tl.count || row.Aggs[1].Int != tl.linked ||
			row.Aggs[2].Int != tl.handshake || row.Aggs[3].Int != tl.payload {
			t.Fatalf("row %v = %+v, want %+v", row.Key, row.Aggs, tl)
		}
	}
}
