package archive_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/synscan/synscan/internal/analysis"
	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/query"
)

// TestKeptRowsSurviveChurn: the consumers that keep what Query lends them —
// select-mode results and CollectArchive's campaigns — keep copies. With
// poisonScratch on, which scribbles every row set and scratch as it is
// released, what they returned encodes to the same bytes after aggregates of
// other projections have recycled all of them, and it is what was archived.
func TestKeptRowsSurviveChurn(t *testing.T) {
	archive.PoisonScratch(true)
	defer archive.PoisonScratch(false)

	scans, origins := archive.TestScans(3000, 79)
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf, archive.WriterConfig{TelescopeSize: 4096, Origins: true, BlockBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range scans {
		if err := w.AddWithOrigin(sc, origins[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := archive.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	run := func(text string) *query.Result {
		t.Helper()
		q, err := query.Parse([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		res, err := query.Run(context.Background(), q, query.ReaderSource{R: rd})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	encode := func(v any) []byte {
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	const year = 2019
	sel := run(`{"limit":100000}`)
	camp, err := analysis.CollectArchive(rd, year)
	if err != nil {
		t.Fatal(err)
	}
	selBytes, campBytes := encode(sel), encode(camp)

	for _, text := range []string{
		`{"group_by":["port"],"aggs":[{"op":"count"}]}`,
		`{"aggs":[{"op":"quantile","field":"rate_pps","qs":[0.5]}]}`,
		`{"group_by":["country","tool"],"aggs":[{"op":"sum","field":"packets"}]}`,
		`{"where":{"field":"two_phase","eq":true},"limit":10}`,
	} {
		run(text)
	}

	if !bytes.Equal(encode(sel), selBytes) {
		t.Fatal("select rows changed after later queries recycled the row sets")
	}
	if !bytes.Equal(encode(camp), campBytes) {
		t.Fatal("CollectArchive's campaigns changed after later queries recycled the row sets")
	}
	if len(sel.Scans) != len(scans) {
		t.Fatalf("select returned %d rows, want %d", len(sel.Scans), len(scans))
	}
	for i, rec := range sel.Scans {
		if !reflect.DeepEqual(rec.Scan, scans[i]) || *rec.Origin != origins[i] {
			t.Fatalf("select row %d: %+v %+v, archived as %+v %+v", i, rec.Scan, rec.Origin, scans[i], origins[i])
		}
	}
	var inYear []*core.Scan
	for _, sc := range scans {
		if archive.YearOf(sc.Start) == year {
			inYear = append(inYear, sc)
		}
	}
	if len(inYear) == 0 || !reflect.DeepEqual(camp.Scans, inYear) {
		t.Fatalf("CollectArchive(%d) returned %d scans differing from the %d archived that year", year, len(camp.Scans), len(inYear))
	}
}
