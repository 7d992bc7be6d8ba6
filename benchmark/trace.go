package main

import (
	"encoding/json"
	"os"
	"time"
)

// A span is one timed call the benchmark made into a layer. Spans of
// one op share Req; Parent is the index of the enclosing span in the
// dump, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// maxSpans bounds the in-memory trace; later spans are counted, not
// kept, so a long traced run cannot grow without limit.
const maxSpans = 1 << 18

// A tracer records spans from one goroutine: begin pushes onto a stack
// so nested calls find their parent, end pops. A nil tracer records
// nothing, which is how untraced runs keep the calls free of clock
// reads.
type tracer struct {
	t0      time.Time
	spans   []span
	stack   []int
	req     int
	dropped int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

// setReq names the op the following spans belong to.
func (t *tracer) setReq(i int) {
	if t != nil {
		t.req = i
	}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	if len(t.spans) == maxSpans {
		t.dropped++
		t.stack = append(t.stack, -1)
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: t.req})
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// selfTimes sums, per span name, each span's duration minus the part
// its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return self
}

func (t *tracer) dump(path string) error {
	data, err := json.Marshal(struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
