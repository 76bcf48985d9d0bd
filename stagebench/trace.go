package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// A span is one call from the harness into a layer of the program: which
// layer, when it started and ended (ns since the tracer was made), the span
// it ran inside, and the slice it belongs to. Shadow spans time a call made
// only to cost a layer the harness cannot reach directly; they are kept out
// of the ledger and of the slice time.
type span struct {
	Slice  int    `json:"slice"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a span the slice itself started
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shadow bool   `json:"shadow,omitempty"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// same slice code runs traced and untraced; the untraced cost is one nil
// check per span site.
type tracer struct {
	t0    time.Time
	slice int
	spans []span // spans of the slice in progress
	kept  []span // spans of the slices written to the trace file
}

// keepSlices bounds the trace file: every traced slice feeds the ledger, the
// first few are written out span by span.
const keepSlices = 3

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// start opens a span and returns its id, or -1 when not tracing.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Slice: t.slice, ID: id, Parent: parent, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
}

// shadow records an already timed shadow call.
func (t *tracer) shadow(name string, start, end int64) {
	t.kept = append(t.kept, span{Slice: -1, ID: len(t.kept), Parent: -1, Name: name, Start: start, End: end, Shadow: true})
}

// ledger is one traced slice seen from outside: self time per layer, and the
// share of the slice's wall time that some layer accounts for.
type ledger struct {
	self     map[string]int64 // ns
	calls    map[string]int
	coverage float64
}

// finishSlice folds the slice's spans into a ledger and clears them. A
// span's self time is its duration less the time its child spans cover, so
// the self times of all spans add up to the time covered by top-level spans.
func (t *tracer) finishSlice(wall time.Duration) ledger {
	l := ledger{self: map[string]int64{}, calls: map[string]int{}}
	self := make([]int64, len(t.spans))
	for i := range t.spans {
		self[i] += t.spans[i].End - t.spans[i].Start
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= t.spans[i].End - t.spans[i].Start
		}
	}
	var covered int64
	for i := range t.spans {
		l.self[t.spans[i].Name] += self[i]
		l.calls[t.spans[i].Name]++
		covered += self[i]
	}
	l.coverage = float64(covered) / float64(wall)
	if t.slice < keepSlices {
		t.kept = append(t.kept, t.spans...)
	}
	t.spans = t.spans[:0]
	t.slice++
	return l
}

// writeTrace writes the kept spans, one JSON object per line.
func (t *tracer) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.kept {
		if err := enc.Encode(&t.kept[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
