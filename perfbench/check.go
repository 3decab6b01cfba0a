package main

import (
	"strings"

	"javasmt/internal/counters"
)

// checkResult is the verdict and the counter totals over a pass's
// cells.
type checkResult struct {
	tally tally
	uops  float64
	// ipcErr is the largest sampled-vs-full IPC error over the cells.
	ipcErr float64
	// counts sums the simulated-machine counters the per-layer metrics
	// use, over every cell whose payload carries a counter file.
	counts map[string]float64
}

// layerEvents are the counters summed into per-layer counts.
var layerEvents = map[string]counters.Event{
	"cycles": counters.Cycles, "uops": counters.Instructions, "retire0": counters.Retire0,
	"rob_stall": counters.ROBStallCycles, "fetch_stall": counters.FetchStallCycles,
	"tc_acc": counters.TCAccesses, "tc_miss": counters.TCMisses,
	"l1d_acc": counters.L1DAccesses, "l1d_miss": counters.L1DMisses,
	"l2_acc": counters.L2Accesses, "l2_miss": counters.L2Misses,
	"itlb_miss": counters.ITLBMisses, "dtlb_miss": counters.DTLBMisses,
	"mispredicts":  counters.BranchMispredicts,
	"ctx_switches": counters.ContextSwitches, "migrations": counters.ThreadMigrations,
	"gc_cycles": counters.GCCycles, "lock_contended": counters.LockContended,
	"fence_stall": counters.FenceStallCycles,
}

// checkCells verifies every cell of a pass run in mode:
//   - a cell the campaign gave up on fails;
//   - a payload that does not decode as its kind fails;
//   - in full mode, a payload whose bytes differ from the recorded
//     reference fails (its counters differ); with pinAll, sampled
//     payloads are held to their recorded reference too (the daemon
//     must return what an in-process CellSpecs run of the cell does).
//
// It also takes the IPC error against the other mode's reference:
// sampled cells against the full-mode reference, and full-mode cells
// against the sampled reference, so the figure is the sampled model's
// error on the same cells whichever side ran.
func checkCells(runs []cellRun, mode string, r *refs, pinAll bool) checkResult {
	cr := checkResult{counts: map[string]float64{}}
	// A mode may carry a variant ("full/roundrobin-core"): the
	// reference of the other mode shares it.
	base, variant, _ := strings.Cut(mode, "/")
	other := "sampled"
	if base == "sampled" {
		other = "full"
	}
	if variant != "" {
		other += "/" + variant
	}
	for _, c := range runs {
		label := c.ls.spec.Label
		if c.fail != "" {
			cr.tally.add(label + ": " + c.fail)
			continue
		}
		ci, err := decodeCell(c.ls.kind, c.payload, r.PairRuns)
		if err != nil {
			cr.tally.add(label + ": " + err.Error())
			continue
		}
		ref, ok := r.Cells[refKey(mode, label)]
		if (base == "full" || pinAll) && (!ok || ref.Digest != digest(c.payload)) {
			cr.tally.add(label + ": " + mode + "-mode payload differs from the recorded in-process reference")
			continue
		}
		cr.tally.add("")
		uops := float64(ci.uops)
		if uops == 0 {
			uops = float64(ref.Uops)
		}
		cr.uops += uops
		if base == "full" {
			cr.counts["uops_full"] += uops
		}
		cr.absorb(ci)
		oref, ok := r.Cells[refKey(other, label)]
		if !ok || len(oref.IPCs) != len(ci.ipcs) {
			continue
		}
		for i, ipc := range ci.ipcs {
			sampled, full := ipc, oref.IPCs[i]
			if base == "full" {
				sampled, full = full, sampled
			}
			cr.ipcErr = max(cr.ipcErr, ipcErrPct(sampled, full))
		}
	}
	return cr
}

// absorb adds a decoded cell's counters to the per-layer counts.
func (cr *checkResult) absorb(ci cellInfo) {
	for _, f := range ci.counters {
		cr.counts["counter_cells"]++
		for name, e := range layerEvents {
			cr.counts[name] += float64(f.Get(e))
		}
	}
	cr.counts["gc_count"] += float64(ci.gcCount)
	for _, e := range ci.samples {
		if e == nil {
			continue
		}
		w := float64(e.TotalUops())
		cr.counts["sampled_uops"] += w
		cr.counts["detail_uops"] += float64(e.DetailedUops)
		cr.counts["measured_uops"] += w * e.MeasuredPct / 100
		cr.counts["windows"] += float64(e.Windows)
	}
	if p := ci.pairRuns; p != nil {
		cr.counts["pair_runs_ab"] += float64(p[0] + p[1])
		cr.counts["pair_runs_min"] += float64(2 * p[2])
	}
}
