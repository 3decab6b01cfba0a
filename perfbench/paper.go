package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"javasmt/internal/bench"
	"javasmt/internal/harness"
	"javasmt/internal/resilience"
	"javasmt/internal/sched"
)

// pairRuns is the pairing-protocol depth of the paper workloads. At
// report's default of 6, one db pair costs 20–35 s of host time, more
// than a whole run may take; at 2 each program still averages two
// measured runs between the dropped cold and truncated ones.
const pairRuns = 2

// fig12Threads is report's thread axis for Figure 12.
var fig12Threads = []int{1, 2, 4, 8, 16}

// labeledSpec is an enumerated harness cell plus what the benchmark
// needs to know about it: its kind, and for fig10/fig12 the options
// that reproduce its µop count.
type labeledSpec struct {
	spec    harness.CellSpec
	kind    string
	bench   string
	threads int
}

// phase is one campaign of the report: a named, ordered cell list run
// to completion before the next phase starts, as cmd/report runs its
// drivers one after another.
type phase struct {
	name  string
	cells []labeledSpec
}

// paperPhases lists the report's campaigns in cmd/report order, with
// pairs as the pairing phase's cells.
func paperPhases(pairs [][2]string) []phase {
	var char []labeledSpec
	for _, s := range harness.CharacterizationCellSpecs() {
		char = append(char, labeledSpec{spec: s, kind: kindChar})
	}
	progs := bench.SingleThreaded()
	idx := map[string]int{}
	for i, b := range progs {
		idx[b.Name] = i
	}
	all := harness.PairingCellSpecs(progs)
	byLabel := map[string]harness.CellSpec{}
	for _, s := range all {
		byLabel[s.Label] = s
	}
	var pc []labeledSpec
	for _, p := range pairs {
		a, b := p[0], p[1]
		if idx[a] > idx[b] {
			a, b = b, a
		}
		pc = append(pc, labeledSpec{spec: byLabel["pair "+a+"+"+b], kind: kindPair})
	}
	f10 := fig10Job("full").cells
	var f12 []labeledSpec
	specs := harness.Fig12CellSpecs(fig12Threads)
	i := 0
	for _, b := range bench.Multithreaded() {
		for _, t := range fig12Threads {
			f12 = append(f12, labeledSpec{spec: specs[i], kind: kindFig12, bench: b.Name, threads: t})
			i++
		}
	}
	return []phase{{kindChar, char}, {kindPair, pc}, {kindFig10, f10}, {kindFig12, f12}}
}

// allPairs is the whole §4.2 grid: the 45 unordered pairs (self-pairs
// included) of the nine single-threaded programs.
func allPairs() [][2]string {
	progs := bench.SingleThreaded()
	var out [][2]string
	for i := range progs {
		for j := i; j < len(progs); j++ {
			out = append(out, [2]string{progs[i].Name, progs[j].Name})
		}
	}
	return out
}

// anchorPair is in every pairing subset: db is the longest program,
// and its self-pair exposes the executor's tail and the pairing
// memory footprint on every seed.
var anchorPair = [2]string{"db", "db"}

// selectPairs draws the seed's pairing subset: the anchor pair, then
// pairs of the other eight programs in seeded order while they fit a
// budget of recorded host cost (each pair plus the solo measurements
// it brings in) equal to the anchor's. Pair cells differ up to 80× in
// host time, so a plain random subset would make the workload's size,
// and its critical path, depend on the seed; this way one worker runs
// the anchor while the other runs a seed-chosen load of the same
// size. The db cross pairs cost 10–21 s each, too much to balance
// against, so they are never drawn. The subset is returned largest
// first, so the phase's makespan tracks its work, not the draw order.
func selectPairs(seed int64, r *refs) [][2]string {
	cost := func(p [2]string, solos map[string]bool) float64 {
		c := r.Cells[refKey("full", "pair "+p[0]+"+"+p[1])].CostS
		for _, b := range p {
			if !solos[b] {
				c += r.SoloCostS[refKey("full", b)]
			}
		}
		return c
	}
	budget := cost(anchorPair, nil)
	var pool [][2]string
	for _, p := range allPairs() {
		if p[0] != "db" && p[1] != "db" {
			pool = append(pool, p)
		}
	}
	ref := func(p [2]string) refCell { return r.Cells[refKey("full", "pair "+p[0]+"+"+p[1])] }
	draw := func(rng *rand.Rand) (picked [][2]string, costs []float64, uops float64) {
		solos := map[string]bool{}
		total := 0.0
		for _, i := range rng.Perm(len(pool)) {
			c := cost(pool[i], solos)
			if total+c > budget {
				continue
			}
			total += c
			uops += float64(ref(pool[i]).Uops)
			picked = append(picked, pool[i])
			costs = append(costs, c)
			solos[pool[i][0]], solos[pool[i][1]] = true, true
		}
		return picked, costs, uops
	}
	// A draw is kept only if its µops are within 3% of the median
	// draw's (over a fixed set of draws), so the seed moves neither
	// the work nor the µops it retires.
	rng := rand.New(rand.NewSource(0))
	var all []float64
	for i := 0; i < 101; i++ {
		_, _, u := draw(rng)
		all = append(all, u)
	}
	target := median(all)
	rng = rand.New(rand.NewSource(seed))
	var picked [][2]string
	var costs []float64
	for {
		var uops float64
		picked, costs, uops = draw(rng)
		if math.Abs(uops/target-1) <= 0.03 {
			break
		}
	}
	order := make([]int, len(picked))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })
	out := [][2]string{anchorPair}
	for _, o := range order {
		out = append(out, picked[o])
	}
	return out
}

// cellRun is one executed cell of a pass.
type cellRun struct {
	ls      labeledSpec
	payload []byte
	fail    string
	// runS is the cell's run time, dispatch to completion.
	runS float64
}

// paperPass runs one pass of paper-full or paper-sampled: the report's
// four campaigns, each through the harness's cell enumeration and the
// sched executor the drivers use, with nproc workers, journaling every
// cell. It returns the outcome the parent aggregates.
func paperPass(a passArgs, r *refs) (*passResult, error) {
	mode := "full"
	if a.workload == "paper-sampled" {
		mode = "sampled"
	}
	pairs := selectPairs(a.seed, r)
	setupFrom := time.Now()
	cfg := harness.DefaultConfig()
	cfg.Jobs = a.workers
	cfg.Runs = pairRuns
	cfg.Plan = planFor(mode)
	jdir := filepath.Join(a.dir, "journal")
	meta := resilience.Meta{Tool: "perfbench", Config: fmt.Sprintf("%s seed=%d runs=%d", a.workload, a.seed, pairRuns)}
	j, err := resilience.Open(jdir, meta, false)
	if err != nil {
		return nil, err
	}
	cfg.Journal = j
	phases := paperPhases(pairs)

	tr := newTracer(a.t0)
	var firstDispatch sync.Once
	var setupS float64
	var start time.Time
	var runs []cellRun
	var jobs, campaigns []float64
	for _, ph := range phases {
		psp := tr.begin(0, ph.name, "harness", -1)
		out := make([]cellRun, len(ph.cells))
		_, err := sched.MapWorker(len(ph.cells), cfg.Jobs, func(w, i int) (struct{}, error) {
			firstDispatch.Do(func() {
				setupS = a.setupTime(setupFrom)
				start = time.Now()
			})
			if a.setupOnly {
				return struct{}{}, nil
			}
			c := ph.cells[i]
			sp := tr.begin(psp, c.spec.Label, "cell", w)
			o, err := c.spec.Run(cfg)
			tr.end(sp)
			out[i].runS = tr.spans[sp].dur()
			if err != nil {
				return struct{}{}, err
			}
			out[i].ls, out[i].payload = c, o.Payload
			if o.Fail != nil {
				out[i].fail = o.Fail.Reason()
			}
			return struct{}{}, nil
		})
		tr.end(psp)
		if err != nil {
			return nil, err
		}
		if a.setupOnly {
			break
		}
		for _, c := range out {
			jobs = append(jobs, c.runS)
		}
		campaigns = append(campaigns, tr.spans[psp].dur())
		runs = append(runs, out...)
	}
	wall := time.Since(start).Seconds()
	if err := j.Close(); err != nil {
		return nil, err
	}
	res := &passResult{SetupS: setupS}
	if a.setupOnly {
		return res, nil
	}
	res.WallS = wall
	res.JobS, res.TailJobS = jobs, campaigns
	check := checkCells(runs, mode, r, false)
	res.absorb(check)
	res.Spans = tr.spans

	// Recovery: reopen the journal as `report -resume` would and replay
	// every campaign; each cell comes back from its journal payload.
	// The pass's garbage is collected first, so the replays are not
	// timed against a background collection of it.
	debug.FreeOSMemory()
	var cached []float64
	var recover []float64
	for k := 0; k < replays; k++ {
		t := time.Now()
		jr, err := resilience.Open(jdir, meta, true)
		if err != nil {
			return nil, err
		}
		cfg.Journal = jr
		for _, ph := range phases {
			pt := time.Now()
			if _, err := sched.Map(len(ph.cells), cfg.Jobs, func(i int) (struct{}, error) {
				o, err := ph.cells[i].spec.Run(cfg)
				if err == nil && o.Fail != nil {
					err = fmt.Errorf("replayed cell %s failed: %s", o.Label, o.Fail.Reason())
				}
				return struct{}{}, err
			}); err != nil {
				jr.Close()
				return nil, err
			}
			cached = append(cached, time.Since(pt).Seconds()*1000)
		}
		if err := jr.Close(); err != nil {
			return nil, err
		}
		recover = append(recover, time.Since(t).Seconds())
	}
	res.CachedJobMS = cached
	res.RecoverS = median(recover)
	res.LedgerBytes, res.Appends = journalSize(jdir)
	return res, nil
}

// replays is how many times a pass times its recovery, reporting the
// median: a replay takes milliseconds, so one reading is mostly noise.
const replays = 25

// journalSize sums the bytes and lines of the JSONL files under dir.
func journalSize(dir string) (bytes float64, lines float64) {
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".jsonl") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		bytes += float64(len(data))
		lines += float64(strings.Count(string(data), "\n"))
		return nil
	})
	return bytes, lines
}
