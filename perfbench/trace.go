package main

import (
	"time"

	"photon/internal/obs"
)

// span is one timed call at a layer boundary; parent indexes the span that
// caused it (-1 for a root).
type span struct {
	name, layer string
	parent      int
	start, end  time.Time
	args        map[string]any
}

// tracer keeps spans in memory until the run ends. Its methods are no-ops
// on a nil receiver, so untraced code paths pass a nil tracer.
type tracer struct {
	tb    *obs.TraceBuffer // its epoch precedes every span
	spans []span
}

func newTracer() *tracer { return &tracer{tb: obs.NewTraceBuffer()} }

func (t *tracer) begin(name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, layer: layer, parent: parent, start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, args map[string]any) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Now()
	t.spans[id].args = args
}

// selfTime sums, per layer, each span's duration minus the time its child
// spans cover. Children of one span run one after another, never overlapping.
func (t *tracer) selfTime() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		d := s.end.Sub(s.start)
		self[s.layer] += d
		if s.parent >= 0 {
			self[t.spans[s.parent].layer] -= d
		}
	}
	return self
}

// writeChrome writes the spans as a Chrome trace-event file, one track per
// span depth, with each span's index and parent in its args.
func (t *tracer) writeChrome(path string) error {
	depth := make([]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			depth[i] = depth[s.parent] + 1
		}
		args := map[string]any{"span": i, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		t.tb.Complete(s.name, s.layer, 1, depth[i], s.start, s.end.Sub(s.start), args)
	}
	return t.tb.WriteFile(path)
}
