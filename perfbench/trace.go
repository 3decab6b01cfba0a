package main

import (
	"sync"
	"time"
)

// tracer records spans in memory; a pass writes them out when it ends.
// Spans come from the benchmark's own code around each call into a
// layer: nothing inside the simulator is instrumented.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(t0 time.Time) *tracer {
	// Span 0 is the pass itself, the root every other span hangs from.
	return &tracer{t0: t0, spans: []span{{Name: "pass", Layer: "perfbench", Worker: -1}}}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name, layer string, worker int) int {
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Worker: worker, Start: now, End: now})
	return id
}

// end closes span id (and stretches the root to cover it).
func (t *tracer) end(id int) {
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[0].End = max(t.spans[0].End, now)
	t.mu.Unlock()
}

// layerSpans returns the spans of one layer.
func layerSpans(spans []span, layer string) []span {
	var out []span
	for _, s := range spans {
		if s.Layer == layer {
			out = append(out, s)
		}
	}
	return out
}
