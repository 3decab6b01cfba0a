package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by nearest
// rank: the smallest sample with at least p% of the samples at or
// below it. Unlike interpolation, it always reads one measured sample,
// so with the four campaigns of a paper pass the median is one
// campaign's duration rather than a blend of two unlike ones. It
// returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the nearest-rank 50th percentile: the lower middle sample
// of an even count.
func median(xs []float64) float64 { return percentile(xs, 50) }

// span is one traced interval on the benchmark's own clock: seconds
// since the pass started. Worker is the executor slot that ran it (-1
// when the span is not a cell).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Worker int     `json:"worker"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// schedSplit derives the executor metrics from cell spans: busyFrac is
// the summed cell time over workers × wall, and tail is the time inside
// [first start, last end] during which fewer than workers cells ran.
func schedSplit(cells []span, workers int, wall float64) (busyFrac, tail float64) {
	if len(cells) == 0 || workers < 1 || wall <= 0 {
		return 0, 0
	}
	type edge struct {
		t     float64
		delta int
	}
	var edges []edge
	sum := 0.0
	for _, c := range cells {
		sum += c.dur()
		edges = append(edges, edge{c.Start, +1}, edge{c.End, -1})
	}
	// Ends sort before starts at the same instant, so back-to-back
	// cells on one worker leave no zero-length dip counted as tail.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta < edges[j].delta
	})
	running := 0
	for i, e := range edges {
		if i > 0 && running < workers {
			tail += e.t - edges[i-1].t
		}
		running += e.delta
	}
	return sum / (float64(workers) * wall), tail
}

// tally counts cells attempted and failed across a run.
type tally struct {
	attempted, failed int
	reasons           []string
}

// add records one cell outcome; a non-empty reason marks a failure.
func (t *tally) add(reason string) {
	t.attempted++
	if reason != "" {
		t.failed++
		if len(t.reasons) < 20 {
			t.reasons = append(t.reasons, reason)
		}
	}
}

// failFrac is failed ÷ attempted (0 when nothing was attempted).
func (t tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// ipcErrPct is |a/b − 1|·100, the relative IPC error of estimate a
// against reference b; 0 when either side is missing.
func ipcErrPct(a, b float64) float64 {
	if a == 0 || b == 0 {
		return 0
	}
	return math.Abs(a/b-1) * 100
}
