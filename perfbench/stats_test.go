package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {20, 1}, {21, 2}, {50, 3}, {80, 4}, {90, 5}, {100, 5}, {-1, 1}, {101, 5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Four campaigns: the median is the second, the 90th the fourth.
	four := []float64{2, 20, 4, 3}
	if got, want := median(four), 3.0; !near(got, want) {
		t.Errorf("median = %v, want %v", got, want)
	}
	if got, want := percentile(four, 90), 20.0; !near(got, want) {
		t.Errorf("p90 = %v, want %v", got, want)
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty percentile not 0")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestSchedSplit(t *testing.T) {
	// Two workers over 10 s: worker 0 busy 0–6 then 6–10, worker 1
	// busy 0–4. Both run during 0–4; only one runs during 4–10.
	cells := []span{
		{Start: 0, End: 6, Worker: 0}, {Start: 6, End: 10, Worker: 0},
		{Start: 0, End: 4, Worker: 1},
	}
	busy, tail := schedSplit(cells, 2, 10)
	if !near(busy, 14.0/20) || !near(tail, 6) {
		t.Errorf("busy %v tail %v, want 0.7 and 6", busy, tail)
	}
	// Fully packed: no tail even where one cell ends as the next begins.
	cells = []span{{Start: 0, End: 5}, {Start: 5, End: 10}, {Start: 0, End: 10}}
	if busy, tail := schedSplit(cells, 2, 10); !near(busy, 1) || !near(tail, 0) {
		t.Errorf("packed: busy %v tail %v, want 1 and 0", busy, tail)
	}
	// A gap with nothing running counts as tail.
	cells = []span{{Start: 0, End: 2}, {Start: 0, End: 2}, {Start: 3, End: 4}, {Start: 3, End: 4}}
	if _, tail := schedSplit(cells, 2, 4); !near(tail, 1) {
		t.Errorf("gap: tail %v, want 1", tail)
	}
	if b, tl := schedSplit(nil, 2, 10); b != 0 || tl != 0 {
		t.Error("no cells should give zeros")
	}
}

func TestTally(t *testing.T) {
	var a tally
	a.add("")
	a.add("x: decode")
	a.add("")
	a.add("")
	if a.attempted != 4 || a.failed != 1 || len(a.reasons) != 1 || !near(a.failFrac(), 0.25) {
		t.Errorf("tally %+v frac %v", a, a.failFrac())
	}
	if (tally{}).failFrac() != 0 {
		t.Error("empty tally fail fraction not 0")
	}
}

func TestCheckCellsCountsFailures(t *testing.T) {
	good := []byte(`{"v":{"Benchmark":"jack","Threads":1,"IPC":0.5,"L1DPerK":3}}`)
	r := &refs{Cells: map[string]refCell{
		refKey("full", "fig12 jack t=1"):    {Digest: digest(good), Uops: 100, IPCs: []float64{0.5}},
		refKey("sampled", "fig12 jack t=1"): {Digest: "x", Uops: 100, IPCs: []float64{0.51}},
		refKey("full", "fig12 jack t=2"):    {Digest: "stale", Uops: 100, IPCs: []float64{0.5}},
	}}
	cell := func(label string, payload []byte, fail string) cellRun {
		c := cellRun{payload: payload, fail: fail}
		c.ls.kind = kindFig12
		c.ls.spec.Label = label
		return c
	}
	runs := []cellRun{
		cell("fig12 jack t=1", good, ""),                    // matches
		cell("fig12 jack t=2", good, ""),                    // differs from reference
		cell("fig12 jack t=4", []byte(`{"v":{"X":1}}`), ""), // does not decode
		cell("fig12 jack t=8", nil, "timeout"),              // given up
	}
	cr := checkCells(runs, "full", r, false)
	if cr.tally.attempted != 4 || cr.tally.failed != 3 {
		t.Fatalf("attempted %d failed %d (%v), want 4 and 3", cr.tally.attempted, cr.tally.failed, cr.tally.reasons)
	}
	if !near(cr.uops, 100) || !near(cr.ipcErr, 2) {
		t.Errorf("uops %v ipcErr %v, want 100 and 2", cr.uops, cr.ipcErr)
	}
	// Sampled cells are not held to the reference digest unless pinned.
	if cr := checkCells(runs[:1], "sampled", r, false); cr.tally.failed != 0 {
		t.Errorf("unpinned sampled cell failed: %v", cr.tally.reasons)
	}
	if cr := checkCells(runs[:1], "sampled", r, true); cr.tally.failed != 1 {
		t.Error("pinned sampled cell with a different digest passed")
	}
}

func TestIPCErrPct(t *testing.T) {
	if got := ipcErrPct(1.02, 1); !near(got, 2) {
		t.Errorf("got %v want 2", got)
	}
	if ipcErrPct(0, 1) != 0 || ipcErrPct(1, 0) != 0 {
		t.Error("missing side should give 0")
	}
}
