package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"javasmt/internal/bench"
	"javasmt/internal/core"
	"javasmt/internal/counters"
	"javasmt/internal/harness"
	"javasmt/internal/sampling"
	"javasmt/internal/sched"
)

// refsPath is the recorded reference file, relative to the repository
// root the benchmark runs from.
const refsPath = "perfbench/refs/refs.json.gz"

// refCell is one cell's reference, recorded by `perfbench record` from
// an in-process harness CellSpecs run of the cell.
type refCell struct {
	// Digest fingerprints the exact payload bytes.
	Digest string `json:"digest"`
	// Uops is the cell's retired µop count; for fig10 and fig12, whose
	// payloads carry no counters, it comes from harness.Run calls with
	// the cell's options.
	Uops uint64    `json:"uops"`
	IPCs []float64 `json:"ipcs"`
	// CostS is the host time the cell took when recorded (two workers
	// busy), used only to balance seeded selections.
	CostS float64 `json:"cost_s"`
}

// refs is the whole reference file.
type refs struct {
	// PairRuns is the pairing-protocol depth every pair cell ran at.
	PairRuns int `json:"pair_runs"`
	// Env stamps the machine the costs were measured on.
	Env envStamp `json:"env"`
	// Cells maps refKey(mode, label) to the cell's reference.
	Cells map[string]refCell `json:"cells"`
	// SoloCostS maps refKey(mode, benchmark) to the host time of the
	// benchmark's solo reference measurement.
	SoloCostS map[string]float64 `json:"solo_cost_s"`
}

func refKey(mode, label string) string { return mode + "|" + label }

// planFor maps a references mode to its sampling plan.
func planFor(mode string) sampling.Plan {
	if mode == "sampled" {
		return sampling.DefaultSampledPlan()
	}
	return sampling.FullPlan()
}

func loadRefs(root string) (*refs, error) {
	f, err := os.Open(filepath.Join(root, refsPath))
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	var r refs
	if err := json.NewDecoder(zr).Decode(&r); err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	return &r, nil
}

// recordRefs runs every cell any seed can select, in both modes, and
// writes the reference file: per-cell payload digests, µop counts,
// IPCs and host costs, plus the solo-measurement costs.
func recordRefs(root string) error {
	r := &refs{PairRuns: pairRuns, Env: stamp(root, 0), Cells: map[string]refCell{}, SoloCostS: map[string]float64{}}
	workers := runtime.NumCPU()
	var mu sync.Mutex
	for _, mode := range []string{"full", "sampled"} {
		plan := planFor(mode)
		// Solo measurements first, so each pair cell's cost is the
		// pairing alone; selections add the solos they need.
		progs := bench.SingleThreaded()
		if _, err := sched.Map(len(progs), workers, func(i int) (struct{}, error) {
			t := time.Now()
			_, err := harness.SoloTimePlan(progs[i], bench.Tiny, pairRuns, plan)
			mu.Lock()
			r.SoloCostS[refKey(mode, progs[i].Name)] = time.Since(t).Seconds()
			mu.Unlock()
			return struct{}{}, err
		}); err != nil {
			return err
		}
		type task struct {
			key  string
			cell labeledSpec
			cfg  harness.Config
		}
		cfg := harness.DefaultConfig()
		cfg.Runs = pairRuns
		cfg.Plan = plan
		var tasks []task
		for _, ph := range paperPhases(allPairs()) {
			for _, c := range ph.cells {
				tasks = append(tasks, task{refKey(mode, c.spec.Label), c, cfg})
			}
		}
		for _, js := range serviceCandidates() {
			if js.mode() != mode {
				continue
			}
			jcfg := cfg
			jcfg.SchedPolicy = js.spec.SchedPolicy
			jcfg.SchedParams.Timeslice = js.spec.Timeslice
			for _, c := range js.cells {
				tasks = append(tasks, task{refKey(js.refMode(), c.spec.Label), c, jcfg})
			}
		}
		if _, err := sched.Map(len(tasks), workers, func(i int) (struct{}, error) {
			c, cfg, key := tasks[i].cell, tasks[i].cfg, tasks[i].key
			mu.Lock()
			_, done := r.Cells[key]
			mu.Unlock()
			if done {
				return struct{}{}, nil
			}
			t := time.Now()
			out, err := c.spec.Run(cfg)
			cost := time.Since(t).Seconds()
			if err != nil {
				return struct{}{}, err
			}
			if out.Fail != nil {
				return struct{}{}, fmt.Errorf("%s: %s", c.spec.Label, out.Fail.Reason())
			}
			ci, err := decodeCell(c.kind, out.Payload, pairRuns)
			if err != nil {
				return struct{}{}, fmt.Errorf("%s: %w", c.spec.Label, err)
			}
			uops := ci.uops
			if uops == 0 {
				if uops, err = counterlessUops(c, plan); err != nil {
					return struct{}{}, err
				}
			}
			mu.Lock()
			r.Cells[key] = refCell{Digest: digest(out.Payload), Uops: uops, IPCs: ci.ipcs, CostS: cost}
			mu.Unlock()
			fmt.Fprintf(os.Stderr, "record %-44s %7.3fs\n", key, cost)
			return struct{}{}, nil
		}); err != nil {
			return err
		}
	}
	return writeRefs(root, r)
}

// counterlessUops measures the µops of a fig10 or fig12 cell, whose
// payload carries none, by running the cell's simulations directly
// with the options the harness enumerator uses.
func counterlessUops(c labeledSpec, plan sampling.Plan) (uint64, error) {
	b, ok := bench.ByName(c.bench)
	if !ok {
		return 0, fmt.Errorf("%s: unknown benchmark %q", c.spec.Label, c.bench)
	}
	var opts []harness.Options
	switch c.kind {
	case kindFig10:
		opts = []harness.Options{{Threads: 1}, {HT: true, Threads: 1}, {HT: true, Threads: 1, Partition: core.DynamicPartition}}
	case kindFig12:
		opts = []harness.Options{{HT: true, Threads: c.threads}}
	default:
		return 0, fmt.Errorf("%s: payload has no counters", c.spec.Label)
	}
	var total uint64
	for _, o := range opts {
		o.Scale, o.Plan = bench.Tiny, plan
		res, err := harness.Run(b, o)
		if err != nil {
			return 0, err
		}
		total += res.Counters.Get(counters.Instructions)
	}
	return total, nil
}

func writeRefs(root string, r *refs) error {
	path := filepath.Join(root, refsPath)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	// encoding/json sorts map keys, so the unpacked file diffs cleanly.
	enc := json.NewEncoder(zw)
	enc.SetIndent("", " ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
