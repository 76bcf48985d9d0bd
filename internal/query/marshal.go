package query

import (
	"encoding/json"

	"github.com/synscan/synscan/internal/fingerprint"
	"github.com/synscan/synscan/internal/packet"
)

// MarshalJSON renders the query in the compact request form Parse accepts —
// the /v1/query wire format — so a Query built with the fluent Builder can
// be POSTed to a remote synserve (the facade's retrying Client does
// exactly that) and round-trips: Parse(MarshalJSON(q)) has q's Key.
func (q *Query) MarshalJSON() ([]byte, error) {
	var req struct {
		Where   json.RawMessage `json:"where,omitempty"`
		GroupBy []string        `json:"group_by,omitempty"`
		Aggs    []wireAgg       `json:"aggs,omitempty"`
		OrderBy string          `json:"order_by,omitempty"`
		Limit   int             `json:"limit,omitempty"`
	}
	if q.Where != nil {
		raw, err := marshalExpr(q.Where)
		if err != nil {
			return nil, err
		}
		req.Where = raw
	}
	for _, f := range q.GroupBy {
		req.GroupBy = append(req.GroupBy, f.String())
	}
	for _, a := range q.Aggs {
		w := wireAgg{Op: a.Op.String(), K: a.K, Qs: a.Qs}
		if a.Op != OpCount {
			w.Field = a.Field.String()
		}
		req.Aggs = append(req.Aggs, w)
	}
	if q.Order == OrderKey {
		req.OrderBy = "key"
	}
	req.Limit = q.Limit
	return json.Marshal(&req)
}

type wireAgg struct {
	Op    string    `json:"op"`
	Field string    `json:"field,omitempty"`
	K     int       `json:"k,omitempty"`
	Qs    []float64 `json:"qs,omitempty"`
}

// marshalExpr renders one filter node in the wire form parseNode accepts.
func marshalExpr(e Expr) (json.RawMessage, error) {
	switch n := e.(type) {
	case *andExpr:
		return marshalKids("and", n.kids)
	case *orExpr:
		return marshalKids("or", n.kids)
	case *notExpr:
		kid, err := marshalExpr(n.kid)
		if err != nil {
			return nil, err
		}
		return json.Marshal(map[string]json.RawMessage{"not": kid})
	case *inExpr:
		d := n.field.def()
		vals := make([]any, 0, len(n.ints)+len(n.strs))
		for _, v := range n.ints {
			if d.kind == kindEnum {
				vals = append(vals, d.enum.name(v)) // the display names the parser accepts
			} else {
				vals = append(vals, v)
			}
		}
		for _, s := range n.strs {
			vals = append(vals, s)
		}
		return json.Marshal(map[string]any{"field": n.field.String(), "in": vals})
	case *boolExpr:
		return json.Marshal(map[string]any{"field": n.field.String(), "eq": n.want})
	case *prefixExpr:
		return json.Marshal(map[string]any{"field": n.field.String(), "prefix": n.pfx.String()})
	case *timeExpr:
		m := map[string]any{"field": n.field.String()}
		if n.min != nil {
			m["min_ns"] = *n.min
		}
		if n.max != nil {
			m["max_ns"] = *n.max
		}
		return json.Marshal(m)
	case *rangeExpr:
		m := map[string]any{"field": n.field.String()}
		if n.min != nil {
			m["min"] = *n.min
		}
		if n.max != nil {
			m["max"] = *n.max
		}
		return json.Marshal(m)
	}
	return nil, errf("filter node %T has no wire form", e)
}

func marshalKids(op string, kids []Expr) (json.RawMessage, error) {
	raws := make([]json.RawMessage, 0, len(kids))
	for _, k := range kids {
		raw, err := marshalExpr(k)
		if err != nil {
			return nil, err
		}
		raws = append(raws, raw)
	}
	return json.Marshal(map[string][]json.RawMessage{op: raws})
}

// WireScan is one select-mode row as /v1/query and /v1/scans serve it: the one
// definition the server encodes and the facade's remote client decodes.
type WireScan struct {
	Src              string      `json:"src"`
	StartNS          int64       `json:"start_ns"`
	EndNS            int64       `json:"end_ns"`
	Packets          uint64      `json:"packets"`
	DistinctDsts     int         `json:"distinct_dsts"`
	Ports            []uint16    `json:"ports"`
	Tool             string      `json:"tool"`
	Qualified        bool        `json:"qualified"`
	RatePPS          float64     `json:"rate_pps"`
	Coverage         float64     `json:"coverage"`
	TwoPhase         bool        `json:"two_phase,omitempty"`
	ISN              string      `json:"isn,omitempty"`
	LinkedDsts       int         `json:"linked_dsts,omitempty"`
	HandshakePackets uint64      `json:"handshake_packets,omitempty"`
	PayloadBytes     uint64      `json:"payload_bytes,omitempty"`
	Origin           *WireOrigin `json:"origin,omitempty"`
}

// WireOrigin is a served scan's enrichment origin.
type WireOrigin struct {
	Country string `json:"country"`
	ASN     uint32 `json:"asn"`
	Type    string `json:"type"`
	OrgName string `json:"org,omitempty"`
}

// Wire renders the row in its served form.
func (r ScanRec) Wire() WireScan {
	sc := r.Scan
	w := WireScan{
		Src:              packet.FormatIPv4(sc.Src),
		StartNS:          sc.Start,
		EndNS:            sc.End,
		Packets:          sc.Packets,
		DistinctDsts:     sc.DistinctDsts,
		Ports:            sc.Ports,
		Tool:             sc.Tool.String(),
		Qualified:        sc.Qualified,
		RatePPS:          sc.RatePPS,
		Coverage:         sc.Coverage,
		TwoPhase:         sc.TwoPhase,
		LinkedDsts:       sc.LinkedDsts,
		HandshakePackets: sc.HandshakePackets,
		PayloadBytes:     sc.PayloadBytes,
	}
	if sc.ISN != fingerprint.ISNUnknown {
		w.ISN = sc.ISN.String()
	}
	if o := r.Origin; o != nil {
		w.Origin = &WireOrigin{Country: o.Country, ASN: o.ASN, Type: o.Type.String(), OrgName: o.OrgName}
	}
	return w
}
