package analysis

import (
	"reflect"
	"testing"

	"github.com/synscan/synscan/internal/fingerprint"
	"github.com/synscan/synscan/internal/reactive"
	"github.com/synscan/synscan/internal/tools"
	"github.com/synscan/synscan/internal/workload"
)

func reactiveScenario(t *testing.T) *workload.Scenario {
	t.Helper()
	s, err := workload.NewScenario(workload.Config{
		Year: 2021, Seed: 42, Scale: 0.0005, TelescopeSize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCollectReactiveLinksTwoPhase: the reactive pass produces campaigns the
// detector links across both phases, with the expected attribution — only
// designated masscan-style campaigns carry the flag, they show mixed or
// irregular ISNs plus handshake traffic, and payload bytes arrive.
func TestCollectReactiveLinksTwoPhase(t *testing.T) {
	t.Parallel()
	rd := CollectReactive(reactiveScenario(t), reactive.DefaultPolicy(1), CollectConfig{})

	if rd.Workload.TwoPhaseCampaigns == 0 {
		t.Fatal("workload designated no two-phase campaigns")
	}
	if rd.Responder.Responded == 0 || rd.Responder.Phase2 == 0 {
		t.Fatalf("responder inactive: %+v", rd.Responder)
	}
	if rd.Responder.Payloads == 0 {
		t.Fatal("no payload segments accepted")
	}

	var linked, withPayload int
	for _, sc := range rd.Scans {
		if !sc.TwoPhase {
			continue
		}
		linked++
		if sc.Tool != tools.ToolMasscan {
			t.Fatalf("two-phase campaign attributed to %v, want masscan", sc.Tool)
		}
		if sc.LinkedDsts == 0 {
			t.Fatal("two-phase campaign with zero linked destinations")
		}
		if sc.HandshakePackets == 0 {
			t.Fatal("two-phase campaign with no handshake packets")
		}
		if sc.ScoutPackets+sc.HandshakePackets != sc.Packets {
			t.Fatalf("phase split %d+%d != %d packets",
				sc.ScoutPackets, sc.HandshakePackets, sc.Packets)
		}
		if sc.ISN == fingerprint.ISNRegular {
			t.Fatal("two-phase campaign classified fully regular")
		}
		if len(sc.Payload) > 0 {
			withPayload++
			if sc.PayloadBytes == 0 {
				t.Fatal("payload prefix without payload bytes")
			}
		}
	}
	if linked == 0 {
		t.Fatal("no campaign was linked two-phase")
	}
	if withPayload == 0 {
		t.Fatal("no linked campaign retained a payload prefix")
	}

	// The share table must agree with a direct tally over the scans.
	var wantMasscan TwoPhaseRow
	for _, sc := range rd.Scans {
		if !sc.Qualified || sc.Tool != tools.ToolMasscan {
			continue
		}
		wantMasscan.Scans++
		if sc.TwoPhase {
			wantMasscan.TwoPhase++
		}
		wantMasscan.LinkedDsts += uint64(sc.LinkedDsts)
		wantMasscan.HandshakePackets += sc.HandshakePackets
		wantMasscan.PayloadBytes += sc.PayloadBytes
	}
	var got *TwoPhaseRow
	for _, row := range rd.TwoPhaseTable() {
		if row.Tool == tools.ToolMasscan {
			r := row
			got = &r
		} else if row.TwoPhase != 0 {
			t.Fatalf("tool %v reports two-phase campaigns", row.Tool)
		}
	}
	if got == nil || got.TwoPhase == 0 {
		t.Fatal("two-phase table has no masscan row")
	}
	if got.Scans != wantMasscan.Scans || got.TwoPhase != wantMasscan.TwoPhase ||
		got.LinkedDsts != wantMasscan.LinkedDsts ||
		got.HandshakePackets != wantMasscan.HandshakePackets ||
		got.PayloadBytes != wantMasscan.PayloadBytes {
		t.Fatalf("table row %+v disagrees with direct tally %+v", *got, wantMasscan)
	}
}

// TestCollectReactiveDeterministic: equal configurations give deep-equal
// campaign lists across independent runs.
func TestCollectReactiveDeterministic(t *testing.T) {
	t.Parallel()
	a := CollectReactive(reactiveScenario(t), reactive.DefaultPolicy(1), CollectConfig{})
	b := CollectReactive(reactiveScenario(t), reactive.DefaultPolicy(1), CollectConfig{})
	if !reflect.DeepEqual(a.Scans, b.Scans) {
		t.Fatalf("reactive runs differ: %d vs %d campaigns", len(a.Scans), len(b.Scans))
	}
	if a.Responder != b.Responder {
		t.Fatalf("responder stats differ: %+v vs %+v", a.Responder, b.Responder)
	}
	if a.Workload != b.Workload {
		t.Fatalf("workload summaries differ: %+v vs %+v", a.Workload, b.Workload)
	}
}
