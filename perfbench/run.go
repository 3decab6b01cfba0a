package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what a run saves under .bench_build/results: the result
// plus the stamp that makes it comparable, and the figures kept out of
// the result line.
type record struct {
	Workload string            `json:"workload"`
	Trace    bool              `json:"trace"`
	Env      envStamp          `json:"env"`
	Result   result            `json:"result"`
	Extra    map[string]metric `json:"extra"`
}

// endToEnd lists the end-to-end metrics and their units. Three more
// figures are printed and saved but left out, because no bound the
// benchmark may set holds them steady from run to run on a shared
// machine:
//   - peak RSS: a pairing campaign's live heap grows steadily, and Go's
//     collector lets the heap reach up to twice the live size before it
//     collects, so the peak lands anywhere between 1× and 2× the live
//     peak;
//   - cached_job_ms and recover_s: file-system-bound operations of one
//     to fifteen milliseconds, which drift by a fifth between runs.
//
// The traced run reports them as go.peak_rss_mb,
// service.cached_job_ms and resilience.recover_s.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"wall_s", "s"}, {"uops_per_s", "uops/s"},
	{"ipc_err_pct", "%"}, {"job_p50_s", "s"}, {"job_p90_s", "s"},
}

// nominalPass is about how long one pass of each workload takes on a
// 2-vCPU machine.
var nominalPass = map[string]time.Duration{
	"paper-full": 30 * time.Second, "paper-sampled": 20 * time.Second, "service-mix": 15 * time.Second,
}

// run measures one workload: the measured passes, each after a share
// of the setup-only passes for setup_s, and aggregates them.
func run(root, workload string, seed int64, seconds time.Duration, trace bool) (*result, error) {
	if _, err := loadRefs(root); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	base := filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%s-%d", workload, os.Getpid()))
	defer os.RemoveAll(base)
	n := 0
	pass := func(setupOnly, traced bool) (*passResult, error) {
		n++
		return spawnPass(ctx, root, filepath.Join(base, fmt.Sprintf("p%d", n)), workload, seed, setupOnly, traced)
	}

	// A traced run makes one untraced and one traced pass; otherwise a
	// run makes as many passes as it takes to cover the measuring time
	// at the workload's nominal pass length, so the count never depends
	// on how fast the machine happens to be.
	nom := nominalPass[workload]
	want := max(1, int((seconds+nom-1)/nom))
	if trace {
		want = 2
	}
	// The setup-only passes are spread out before the measured ones, so
	// setup_s samples the machine across the whole run, not in its
	// first second only.
	var setups []float64
	var passes []*passResult
	for len(passes) < want {
		for i := 0; i < (setupSamples+want-1)/want; i++ {
			p, err := pass(true, false)
			if err != nil {
				return nil, err
			}
			setups = append(setups, p.SetupS)
		}
		p, err := pass(false, trace && len(passes) == 1)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		setups = append(setups, p.SetupS)
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: wall %.3fs, jobs %.3g s, %d/%d cells failed\n",
			workload, len(passes), p.WallS, p.TailJobS, p.Failed, p.Attempted)
		for _, r := range p.Reasons {
			fmt.Fprintln(os.Stderr, "  FAILED", r)
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var walls, rates, rss, ipcErr, recover, jobs, tail, cached []float64
	for _, p := range passes {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		walls = append(walls, p.WallS)
		rates = append(rates, p.Uops/p.WallS)
		rss = append(rss, p.PeakRSSMB)
		ipcErr = append(ipcErr, p.IPCErrPct)
		recover = append(recover, p.RecoverS)
		jobs = append(jobs, p.JobS...)
		tail = append(tail, p.TailJobS...)
		cached = append(cached, p.CachedJobMS...)
	}
	e2e := map[string]float64{
		"setup_s": median(setups), "wall_s": median(walls), "uops_per_s": median(rates),
		"ipc_err_pct": median(ipcErr),
		"job_p50_s":   median(jobs), "job_p90_s": percentile(tail, 90),
	}
	tl := tally{attempted: res.Attempted, failed: res.Failed}
	extra := map[string]metric{
		"cell_fail_frac": {tl.failFrac(), "ratio"},
		"peak_rss_mb":    {median(rss), "MB"},
		"cached_job_ms":  {median(cached), "ms"},
		"recover_s":      {median(recover), "s"},
		"passes":         {float64(len(passes)), "count"},
		"jobs":           {float64(len(jobs)), "count"},
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	if trace {
		untraced, traced := passes[0], passes[1]
		for k, v := range traced.Layers {
			res.Metrics[k] = metric{v, layerUnit(k)}
		}
		res.Metrics["trace.overhead_s"] = metric{traced.WallS - untraced.WallS, "s"}
		res.Metrics["go.peak_rss_mb"] = metric{traced.PeakRSSMB, "MB"}
		res.Metrics["service.cached_job_ms"] = metric{median(traced.CachedJobMS), "ms"}
		res.Metrics["resilience.recover_s"] = metric{traced.RecoverS, "s"}
		cov := traced.Profile.coveredFrac()
		extra["profile.covered_frac"] = metric{cov, "ratio"}
		if cov < 0.9 {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: named packages and runtime cover only %.1f%% of profile samples; largest others: %v\n",
				100*cov, traced.Profile.uncovered())
		}
		if err := writeTrace(root, workload, traced); err != nil {
			return nil, err
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	}
	printHuman(workload, res, extra)
	rec := record{Workload: workload, Trace: trace, Env: stamp(root, seed), Result: *res, Extra: extra}
	if err := saveRecord(root, rec); err != nil {
		return nil, err
	}
	return res, nil
}

// printHuman prints every metric with its unit, one per line, before
// the result line.
func printHuman(workload string, res *result, extra map[string]metric) {
	var names []string
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, k := range names {
		fmt.Printf("  %-28s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	names = names[:0]
	for k := range extra {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-28s %16.6g %s\n", k, extra[k].Value, extra[k].Unit)
	}
}

func saveRecord(root string, rec record) error {
	dir := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	kind := "e2e"
	if rec.Trace {
		kind = "trace"
	}
	name := fmt.Sprintf("%s-seed%d-%s-%s.json", rec.Workload, rec.Env.Seed, kind, time.Now().UTC().Format("20060102T150405.000"))
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// writeTrace writes the traced pass's spans, profile split and layer
// metrics to .bench_build/trace/<workload>.json.
func writeTrace(root, workload string, p *passResult) error {
	dir := filepath.Join(root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload": workload, "spans": p.Spans, "profile": p.Profile, "layers": p.Layers,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".json"), append(data, '\n'), 0o644)
}

// compare prints the metric ratios of two saved records, refusing
// records from different machines, toolchains, seeds or workloads.
func compare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare BASE.json HEAD.json")
	}
	var recs [2]record
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	a, b := recs[0], recs[1]
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s (trace=%v) with %s (trace=%v)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	if why := a.Env.comparable(b.Env); why != "" {
		return fmt.Errorf("refusing to compare results from different stamps: %s", why)
	}
	fmt.Printf("%s: %s -> %s\n", a.Workload, a.Env.Commit, b.Env.Commit)
	var names []string
	for k := range a.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		x, y := a.Result.Metrics[k], b.Result.Metrics[k]
		ratio := "-"
		if x.Value != 0 {
			ratio = fmt.Sprintf("%.3f", y.Value/x.Value)
		}
		fmt.Printf("  %-28s %14.6g %14.6g %s  ×%s\n", k, x.Value, y.Value, x.Unit, ratio)
	}
	return nil
}

// layerUnit is the unit of a per-layer metric, from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ns_per_uop"):
		return "ns/uop"
	case strings.HasSuffix(name, "ns_per_access"):
		return "ns/access"
	case strings.HasSuffix(name, "_frac"):
		return "ratio"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_mpki"):
		return "per_kuop"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_bytes"):
		return "B"
	}
	return "count"
}

// layerMetrics derives every per-layer metric from a traced pass: the
// package-attributed profile, the cell counters, the spans, and the Go
// memory statistics taken around the pass.
func layerMetrics(a passArgs, p *passResult, ps profileSplit, ms0, ms1 runtime.MemStats) map[string]float64 {
	c := p.Counts
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := map[string]float64{}
	for _, pkg := range []string{"core", "simos", "jvm", "cache", "tlb", "branch", "mem", "sampling", "service", "resilience"} {
		m[pkg+".cpu_s"] = ps.SelfS[pkg]
	}
	// Full-mode cells run every µop in detail; sampled cells count the
	// detailed share their reconstruction estimate reports.
	fullUops := c["uops_full"]
	detailShare := per(fullUops+c["detail_uops"], fullUops+c["sampled_uops"])
	m["core.step_cum_s"] = ps.CumS["step"]
	m["core.functional_cum_s"] = ps.CumS["functional"]
	m["core.detailed_ns_per_uop"] = per((ps.CumS["step"]-ps.FillUnderStepS)*1e9, p.Uops*detailShare)
	m["core.uops"] = c["uops"]
	m["core.cycles"] = c["cycles"]
	m["core.zero_retire_frac"] = per(c["retire0"], c["cycles"])
	m["core.rob_stall_frac"] = per(c["rob_stall"], c["cycles"])
	m["core.fetch_stall_frac"] = per(c["fetch_stall"], c["cycles"])
	m["simos.fill_cum_s"] = ps.CumS["fill"]
	m["simos.fill_ns_per_uop"] = per(ps.CumS["fill"]*1e9, p.Uops)
	m["simos.context_switches"] = c["ctx_switches"]
	m["simos.migrations"] = c["migrations"]
	m["jvm.gc_count"] = c["gc_count"]
	m["jvm.gc_cycle_frac"] = per(c["gc_cycles"], c["cycles"])
	m["jvm.lock_contended"] = c["lock_contended"]
	m["jvm.fence_stall_frac"] = per(c["fence_stall"], c["cycles"])
	acc := c["tc_acc"] + c["l1d_acc"] + c["l2_acc"]
	m["cache.accesses"] = acc
	m["cache.ns_per_access"] = per(ps.SelfS["cache"]*1e9, acc)
	m["cache.tc_mpki"] = per(1000*c["tc_miss"], c["uops"])
	m["cache.l1d_mpki"] = per(1000*c["l1d_miss"], c["uops"])
	m["cache.l2_mpki"] = per(1000*c["l2_miss"], c["uops"])
	m["tlb.misses"] = c["itlb_miss"] + c["dtlb_miss"]
	m["branch.mispredicts"] = c["mispredicts"]
	m["sampling.detail_pct"] = 100 * detailShare
	m["sampling.measured_pct"] = 100 * per(fullUops+c["measured_uops"], fullUops+c["sampled_uops"])
	m["sampling.windows"] = c["windows"]
	m["bench.build_cum_s"] = ps.CumS["build"]
	cells := layerSpans(p.Spans, "cell")
	var durs []float64
	for _, s := range cells {
		durs = append(durs, s.dur())
	}
	m["harness.cell_p50_s"] = median(durs)
	m["harness.cell_max_s"] = percentile(durs, 100)
	m["harness.pair_extra_run_frac"] = per(c["pair_runs_ab"]-c["pair_runs_min"], c["pair_runs_ab"])
	m["sched.busy_frac"], m["sched.tail_s"] = 0, 0
	for _, ph := range layerSpans(p.Spans, "harness") {
		var in []span
		for _, s := range cells {
			if s.Parent == ph.ID {
				in = append(in, s)
			}
		}
		busy, tail := schedSplit(in, a.workers, ph.dur())
		m["sched.busy_frac"] += busy * ph.dur() / p.WallS
		m["sched.tail_s"] += tail
	}
	so := p.Service
	if so == nil {
		so = &serviceObs{}
	}
	m["service.submit_ms"] = median(so.SubmitMS)
	m["service.queue_wait_s"] = median(so.QueueWaitS)
	m["service.cache_hit_frac"] = per(so.CachedLines, so.CachedLines+so.SimulatedLines)
	m["service.cells_simulated"] = so.SimulatedLines
	m["resilience.ledger_bytes"] = p.LedgerBytes
	m["resilience.appends"] = p.Appends
	m["go.gc_cpu_s"] = ps.GCS
	m["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	m["go.num_gc"] = float64(ms1.NumGC - ms0.NumGC)
	return m
}
