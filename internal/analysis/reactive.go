package analysis

import (
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/query"
	"github.com/synscan/synscan/internal/reactive"
	"github.com/synscan/synscan/internal/telescope"
	"github.com/synscan/synscan/internal/tools"
	"github.com/synscan/synscan/internal/workload"
)

// ReactiveData is a reactive collection pass: the year's aggregates plus the
// responder's accounting and the generator's two-phase summary.
type ReactiveData struct {
	*YearData
	// Responder is the reactive telescope's counter snapshot.
	Responder reactive.Stats
	// Workload is the generator's summary (two-phase designations, responses
	// seen by the scanners, accepted phase-two segments).
	Workload workload.Summary
}

// CollectReactive is Collect through a reactive telescope: the scenario
// replays with SYN-ACK synthesis per pol, two-phase scanners come back with
// handshakes and payloads, and the detector links both phases into single
// campaigns carrying the reactive attributes (TwoPhase, ISN class, payload).
// Aggregates gate on the responder's effective ingress decision, so drop
// accounting stays truthful and phase-two segments count exactly once.
func CollectReactive(s *workload.Scenario, pol reactive.Policy, cc CollectConfig) *ReactiveData {
	rt := reactive.New(s.Telescope, pol)
	rt.SetMetrics(cc.Metrics)
	rd := &ReactiveData{}
	rd.YearData = collect(s, cc, func(accept func(*packet.Probe)) {
		rd.Workload = s.RunReactive(rt, func(p *packet.Probe, d reactive.Disposition) {
			if d.Reason == telescope.Accepted {
				accept(p)
			}
		})
	})
	rd.Responder = rt.Stats()
	return rd
}

// TwoPhaseRow is one tool's row of the two-phase share table.
type TwoPhaseRow struct {
	Tool             tools.Tool
	Scans            uint64  // qualified campaigns attributed to the tool
	TwoPhase         uint64  // of those, linked two-phase campaigns
	Share            float64 // TwoPhase / Scans
	LinkedDsts       uint64  // linked destinations across the tool's campaigns
	HandshakePackets uint64  // phase-two segments across the tool's campaigns
	PayloadBytes     uint64  // application payload bytes received
}

// TwoPhaseTable reports, per tool, how many qualified campaigns the reactive
// telescope linked into two phases and how much second-phase traffic they
// carried — the Spoki headline measurement ("what share of scanners comes
// back when you answer"). Computed through the query engine over the new
// reactive fields, so the table and POST /v1/query cannot drift.
func (c *Campaigns) TwoPhaseTable() []TwoPhaseRow {
	rows := engineTable(qualified().GroupBy(query.FieldTool).Count().
		Sum(query.FieldTwoPhase).Sum(query.FieldLinkedDsts).
		Sum(query.FieldHandshakePackets).Sum(query.FieldPayloadBytes).
		OrderByKey(), c)
	out := make([]TwoPhaseRow, 0, len(rows))
	for _, r := range rows {
		row := TwoPhaseRow{
			Tool:             tools.Tool(r.Key[0].Num),
			Scans:            r.Aggs[0].Count,
			TwoPhase:         r.Aggs[1].Int,
			LinkedDsts:       r.Aggs[2].Int,
			HandshakePackets: r.Aggs[3].Int,
			PayloadBytes:     r.Aggs[4].Int,
		}
		if row.Scans > 0 {
			row.Share = float64(row.TwoPhase) / float64(row.Scans)
		}
		out = append(out, row)
	}
	return out
}
