package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// (one fresh query, one staged replay) share Req; Parent is the index of
// the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory from the single load goroutine. A
// disabled tracer records nothing, so the untraced runs pay one branch
// per call.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(name string, req int64) int {
	if !t.on {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, req int64, fn func() error) error {
	id := t.begin(name, req)
	err := fn()
	t.end(id)
	return err
}

// mark returns the current span count, so later queries can restrict
// themselves to the spans recorded after it.
func (t *tracer) mark() int { return len(t.spans) }

// durations returns the wall durations, in milliseconds, of the spans
// named name recorded between marks from and to.
func (t *tracer) durations(name string, from, to int) []float64 {
	var out []float64
	for _, s := range t.spans[from:to] {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// total returns the summed wall time, in milliseconds, of the spans
// named name recorded since mark from.
func (t *tracer) total(name string, from int) float64 {
	return sum(t.durations(name, from, len(t.spans)))
}

// selfTimes returns, per span since mark from, its duration minus the
// time its direct children cover. Children of one span never overlap:
// every span is opened and closed by the one load goroutine.
func (t *tracer) selfTimes(from int) []float64 {
	self := make([]float64, len(t.spans)-from)
	for i, s := range t.spans[from:] {
		self[i] += float64(s.End - s.Start)
		if s.Parent >= from {
			self[s.Parent-from] -= float64(s.End - s.Start)
		}
	}
	for i := range self {
		self[i] /= 1e6
	}
	return self
}

// layerSelf sums the self times, in milliseconds, of the spans inside
// the span root (excluded) by layer: the span name's prefix before the
// first dot. Spans are stored in start order, so root's descendants are
// the spans after it that start before it ends.
func (t *tracer) layerSelf(root int) map[string]float64 {
	self := t.selfTimes(root)
	out := make(map[string]float64)
	for i, s := range t.spans[root+1:] {
		if s.Start >= t.spans[root].End {
			break
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += self[i+1]
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
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

// spanMS is the wall duration of span id in milliseconds.
func (t *tracer) spanMS(id int) float64 {
	if id < 0 {
		return 0
	}
	return float64(t.spans[id].End-t.spans[id].Start) / 1e6
}
