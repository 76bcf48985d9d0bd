package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/query"
	"github.com/synscan/synscan/internal/reactive"
	"github.com/synscan/synscan/internal/telescope"
	"github.com/synscan/synscan/internal/workload"
)

// runReactivePipeline replays the seeded two-phase workload through the
// responder and the campaign detector, returning the closed campaigns.
func runReactivePipeline(t *testing.T, workers int) []*core.Scan {
	t.Helper()
	s, err := workload.NewScenario(workload.Config{
		Year: 2021, Seed: 42, Scale: 0.0005, TelescopeSize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := reactive.New(s.Telescope, reactive.DefaultPolicy(1))
	var scans []*core.Scan
	det := core.NewDetector(s.DetectorConfig,
		func(sc *core.Scan) { scans = append(scans, sc) },
		core.WithWorkers(workers))
	s.RunReactive(rt, func(p *packet.Probe, d reactive.Disposition) {
		if d.Reason == telescope.Accepted {
			det.Ingest(p)
		}
	})
	det.FlushAll()
	return scans
}

func canonScans(scans []*core.Scan) []*core.Scan {
	out := append([]*core.Scan(nil), scans...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Src < out[j].Src
	})
	return out
}

// TestReactiveEndToEnd walks the whole reactive path: a seeded two-phase
// workload is linked by the detector into single campaigns carrying both
// phases, identically under sharding; the campaigns survive an archive
// round trip byte-identically; and the archive answers POST /v1/query
// filters on the reactive fields with the same campaigns.
func TestReactiveEndToEnd(t *testing.T) {
	scans := runReactivePipeline(t, 1)

	// Phase linking: the scout flight and the returning handshake land in
	// ONE campaign — every scan with phase-two traffic also holds its scout
	// packets, and at least one two-phase campaign with a payload exists.
	var twoPhase, withPayload int
	for _, sc := range scans {
		if sc.HandshakePackets > 0 && sc.ScoutPackets == 0 {
			t.Fatalf("campaign from %08x holds handshakes but no scouts: phases split", sc.Src)
		}
		if sc.TwoPhase {
			twoPhase++
			if sc.LinkedDsts == 0 || sc.HandshakePackets == 0 {
				t.Fatalf("two-phase campaign not linked: %+v", sc)
			}
			if len(sc.Payload) > 0 {
				withPayload++
			}
		}
	}
	if twoPhase == 0 {
		t.Fatal("no two-phase campaign detected")
	}
	if withPayload == 0 {
		t.Fatal("no two-phase campaign retained a payload prefix")
	}

	// Sharded detection produces the same campaign multiset: both phases of
	// a flow route to one shard, so linking needs no cross-shard state.
	if shd := runReactivePipeline(t, 4); !reflect.DeepEqual(canonScans(scans), canonScans(shd)) {
		t.Fatalf("sharded run differs: %d vs %d campaigns", len(scans), len(shd))
	}

	// Archive round trip: write, read every scan back, rewrite — the second
	// encoding is byte-identical, so the phase extension loses nothing.
	write := func(list []*core.Scan) []byte {
		var buf bytes.Buffer
		w, err := archive.NewWriter(&buf, archive.WriterConfig{TelescopeSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range list {
			if err := w.Add(sc); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := write(scans)
	rd, err := archive.NewReader(bytes.NewReader(first), int64(len(first)))
	if err != nil {
		t.Fatal(err)
	}
	var decoded []*core.Scan
	err = rd.Query(context.Background(), archive.All, func(sc *core.Scan, _ *enrich.Origin) {
		decoded = append(decoded, sc.Clone())
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(scans) {
		t.Fatalf("decoded %d scans, wrote %d", len(decoded), len(scans))
	}
	if !bytes.Equal(first, write(decoded)) {
		t.Fatal("rewriting decoded scans changed the archive bytes")
	}

	// Query surface: the archived campaigns answer a two_phase filter over
	// POST /v1/query with exactly the linked set, reactive attributes intact.
	srv := newServer([]source{&file{path: "mem", rd: rd}}, Config{CacheBytes: 64 << 20}, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postQuery(t, ts.URL, `{
		"where": {"field": "two_phase", "eq": true},
		"limit": 1000
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sel struct {
		Matched uint64           `json:"matched"`
		Scans   []query.WireScan `json:"scans"`
	}
	if err := json.Unmarshal(body, &sel); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if sel.Matched != uint64(twoPhase) {
		t.Fatalf("query matched %d campaigns, detector linked %d", sel.Matched, twoPhase)
	}
	for _, sj := range sel.Scans {
		if !sj.TwoPhase || sj.LinkedDsts == 0 || sj.HandshakePackets == 0 || sj.ISN == "" {
			t.Fatalf("served scan missing reactive attributes: %+v", sj)
		}
	}

	resp, body = postQuery(t, ts.URL, `{
		"group_by": ["two_phase"],
		"aggs": [{"op": "count"}, {"op": "sum", "field": "handshake_packets"}],
		"order_by": "key"
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var agg struct {
		Rows []struct {
			Key []struct {
				Str string `json:"str"`
			} `json:"key"`
			Aggs []struct {
				Count uint64 `json:"count"`
				Int   uint64 `json:"int"`
			} `json:"aggs"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(body, &agg); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	var sawTrue bool
	for _, r := range agg.Rows {
		if r.Key[0].Str == "true" {
			sawTrue = true
			if r.Aggs[0].Count != uint64(twoPhase) {
				t.Fatalf("grouped count %d, want %d", r.Aggs[0].Count, twoPhase)
			}
			if r.Aggs[1].Int == 0 {
				t.Fatal("two-phase group reports zero handshake packets")
			}
		}
	}
	if !sawTrue {
		t.Fatal("no two_phase=true group in aggregate result")
	}
}
