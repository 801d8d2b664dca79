package main

import "time"

// span is one timed call into a simulator layer. Spans of one cell share
// Cell; Parent is the ID of the enclosing span (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Cell   int    `json:"cell"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine only; a nil tracer records nothing, so the untraced path pays a
// nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indexes into spans of the spans not yet ended
	cell  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// startCell gives the spans that follow a fresh cell id.
func (t *tracer) startCell() {
	if t != nil {
		t.cell++
	}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Cell: t.cell,
		Name: name, Start: int64(time.Since(t.t0))})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned, and any span still open inside it.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	for n := len(t.open); n > 0; n = len(t.open) {
		j := t.open[n-1]
		t.open = t.open[:n-1]
		t.spans[j].End = now
		if j == i {
			return
		}
	}
}
