package analysis_test

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/synscan/synscan/internal/analysis"
	"github.com/synscan/synscan/internal/archive"
)

// TestStoreLayoutsEquivalent: live ≡ sealed ≡ compacted at the analysis
// layer. The golden decade's campaigns, stored as one segment, rotated into
// at least 20 segments, and rotated then compacted down to one, come back
// from CollectArchiveYears deep-equal to the simulated decade's, and
// evaluate every campaign-level row to the same JSON bytes.
func TestStoreLayoutsEquivalent(t *testing.T) {
	t.Parallel()
	simulated, _ := goldenEvaluation(t)
	want := analysis.CampaignsOf(simulated.Years)
	var total uint64
	for _, c := range want {
		total += uint64(len(c.Scans))
	}
	wantEv, err := analysis.Evaluate(analysis.Input{TelescopeSize: goldenTel, Years: simulated.Years}, analysis.Keys(true))
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON bytes.Buffer
	if err := wantEv.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name                    string
		maxScans                uint64 // 0 = the default bound, far above the decade
		compact                 bool
		segsAtLeast, segsAtMost int
	}{
		{"sealed", 0, false, 1, 1},
		{"rotated", total/20 - 1, false, 20, 1 << 30},
		{"compacted", total/20 - 1, true, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sw, err := archive.OpenSegmentDir(dir, archive.SegmentConfig{
				TelescopeSize: goldenTel, Origins: true, MaxSegmentScans: tc.maxScans,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sw.Close()
			for _, c := range want {
				if err := analysis.ArchiveYear(sw, c); err != nil {
					t.Fatal(err)
				}
			}
			if err := sw.Seal(); err != nil {
				t.Fatal(err)
			}
			if tc.compact {
				comp := archive.NewCompactor(sw, archive.CompactorConfig{MinRun: 2, MaxInputBytes: 1 << 40})
				for {
					n, err := comp.CompactOnce()
					if err != nil {
						t.Fatal(err)
					}
					if n == 0 {
						break
					}
				}
			}
			cat, err := archive.OpenCatalog(dir, archive.CatalogConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer cat.Close()
			v := cat.View()
			defer v.Release()
			if v.Len() < tc.segsAtLeast || v.Len() > tc.segsAtMost {
				t.Fatalf("%d segments, want %d to %d", v.Len(), tc.segsAtLeast, tc.segsAtMost)
			}

			got, err := analysis.CollectArchiveYears(v)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("campaigns differ from the simulated decade's (%d years vs %d)", len(got), len(want))
			}
			ev, err := analysis.Evaluate(analysis.Input{TelescopeSize: got[0].TelescopeSize, Campaigns: got}, analysis.Keys(true))
			if err != nil {
				t.Fatal(err)
			}
			var gotJSON bytes.Buffer
			if err := ev.WriteJSON(&gotJSON); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
				t.Fatal("campaign-level evaluation differs from the simulated decade's")
			}
		})
	}
}
