package query

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"github.com/synscan/synscan/internal/fingerprint"
	"github.com/synscan/synscan/internal/packet"
)

// The /v1/query request schema, declared once: Parse decodes it,
// MarshalJSON encodes it, and a canonical query's encoding is its Key. A
// filter node's children stay raw JSON: the parser checks depth and size
// before it decodes them, and canon orders and/or children by those bytes.
type (
	wireQuery struct {
		Where   json.RawMessage `json:"where,omitempty"`
		GroupBy []string        `json:"group_by,omitempty"`
		Aggs    []wireAgg       `json:"aggs,omitempty"`
		OrderBy string          `json:"order_by,omitempty"`
		Limit   int             `json:"limit,omitempty"`
	}
	wireAgg struct {
		Op    string    `json:"op"`
		Field string    `json:"field,omitempty"`
		K     int       `json:"k,omitempty"`
		Qs    []float64 `json:"qs,omitempty"`
	}
	// wireNode is a combinator, or a field with its kind's operator.
	wireNode struct {
		And    []json.RawMessage `json:"and,omitempty"`
		Or     []json.RawMessage `json:"or,omitempty"`
		Not    json.RawMessage   `json:"not,omitempty"`
		Field  string            `json:"field,omitempty"`
		In     []json.RawMessage `json:"in,omitempty"`
		Eq     json.RawMessage   `json:"eq,omitempty"`
		Min    *float64          `json:"min,omitempty"`
		Max    *float64          `json:"max,omitempty"`
		MinNS  *int64            `json:"min_ns,omitempty"`
		MaxNS  *int64            `json:"max_ns,omitempty"`
		Prefix string            `json:"prefix,omitempty"`
	}
)

// MarshalJSON renders the query in the compact request form Parse accepts —
// the /v1/query wire format — so a Query built with the fluent Builder can
// be POSTed to a remote synserve (the facade's retrying Client does
// exactly that) and round-trips: Parse(MarshalJSON(q)) has q's Key.
func (q *Query) MarshalJSON() ([]byte, error) {
	req := wireQuery{Limit: q.Limit}
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
	return json.Marshal(&req)
}

// marshalExpr renders one filter node in the wire form parseNode accepts. A
// node it cannot render exactly — a bound JSON has no number for, a string
// that is not UTF-8 — is an error, never a lossy encoding.
func marshalExpr(e Expr) (json.RawMessage, error) {
	var w wireNode
	var kids []Expr
	var wireKids *[]json.RawMessage
	switch n := e.(type) {
	case *andExpr:
		kids, wireKids = n.kids, &w.And
	case *orExpr:
		kids, wireKids = n.kids, &w.Or
	case *notExpr:
		kid, err := marshalExpr(n.kid)
		if err != nil {
			return nil, err
		}
		w.Not = kid
	case *inExpr:
		w.Field = n.field.String()
		d := n.field.def()
		for _, v := range n.ints {
			raw := strconv.AppendUint(nil, v, 10)
			if d.kind == kindEnum {
				raw, _ = json.Marshal(d.enum.name(v)) // the display names the parser accepts
			}
			w.In = append(w.In, raw)
		}
		for _, s := range n.strs {
			if !utf8.ValidString(s) {
				return nil, errf("%s value %q is not UTF-8", n.field, s)
			}
			raw, _ := json.Marshal(s) // valid UTF-8: JSON carries it exactly
			w.In = append(w.In, raw)
		}
	case *boolExpr:
		w.Field, w.Eq = n.field.String(), strconv.AppendBool(nil, n.want)
	case *prefixExpr:
		w.Field, w.Prefix = n.field.String(), n.pfx.String()
	case *timeExpr:
		w.Field, w.MinNS, w.MaxNS = n.field.String(), n.min, n.max
	case *rangeExpr:
		w.Field, w.Min, w.Max = n.field.String(), n.min, n.max
	default:
		return nil, errf("filter node %T has no wire form", e)
	}
	for _, k := range kids {
		raw, err := marshalExpr(k)
		if err != nil {
			return nil, err
		}
		*wireKids = append(*wireKids, raw)
	}
	return json.Marshal(&w)
}

// WireScan is one select-mode row as POST /v1/query serves it: the one
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
