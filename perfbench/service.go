package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"javasmt/internal/bench"
	"javasmt/internal/core"
	"javasmt/internal/harness"
	"javasmt/internal/service"
)

// recoverSamples is how many restarts a service-mix pass times;
// recover_s is their median.
const recoverSamples = 25

// jobSpec is a candidate daemon job: its spec and the cells the
// daemon enumerates for it.
type jobSpec struct {
	spec  service.JobSpec
	cells []labeledSpec
}

func (j jobSpec) mode() string {
	if j.spec.SimMode == "sampled" {
		return "sampled"
	}
	return "full"
}

// refMode keys the job's cells in the references: the mode, plus the
// seating policy and quantum when the job sets them (they change the
// payloads).
func (j jobSpec) refMode() string {
	m := j.mode()
	if j.spec.SchedPolicy != "" {
		m += "/" + j.spec.SchedPolicy
	}
	if j.spec.Timeslice != 0 {
		m += fmt.Sprintf("/slice=%d", j.spec.Timeslice)
	}
	return m
}

// syncSweepPolicies and syncSweepSlices are the seating policies and
// scheduler quanta (0 = the simos default) the sync sweeps run under:
// each combination is a distinct campaign of the same cells.
var (
	syncSweepPolicies = []string{"naive", "roundrobin-core", "symbiotic-ipc", "contention-aware"}
	syncSweepSlices   = []uint64{0, 10_000}
)

// The long policy slots: a PseudoJBB-heavy 64-thread mix on 2x2 and a
// 32-thread mix on 4x4. Either seating policy costs about the same in
// each slot, and so does either assignment of one full-mode and one
// sampled slot, so the seed does not change the pass's work.
var policySlots = []struct {
	mix int
	geo core.Geometry
}{{64, core.Geometry{Cores: 2, ContextsPerCore: 2}}, {32, core.Geometry{Cores: 4, ContextsPerCore: 4}}}

func policyJob(mix int, pol string, geo core.Geometry, mode string) jobSpec {
	spec := service.JobSpec{Kind: "policy", Policies: []string{pol}, Mixes: []int{mix},
		Geometries: []string{geo.String()}, SimMode: mode}
	var cells []labeledSpec
	for _, s := range harness.PolicyCellSpecs([]string{pol}, []harness.Mix{harness.ServerMix(mix)}, []core.Geometry{geo}) {
		cells = append(cells, labeledSpec{spec: s, kind: kindPolicy})
	}
	return jobSpec{spec, cells}
}

func fig10Job(mode string) jobSpec {
	var cells []labeledSpec
	for i, s := range harness.Fig10CellSpecs() {
		cells = append(cells, labeledSpec{spec: s, kind: kindFig10, bench: bench.SingleThreaded()[i].Name})
	}
	return jobSpec{service.JobSpec{Kind: "fig10", SimMode: mode}, cells}
}

// sweepJob is the short job: all four sync-stress benchmarks at 2, 4
// and 8 threads under one seating policy and quantum.
func sweepJob(pol string, slice uint64, mode string) jobSpec {
	var names []string
	for _, b := range bench.Sync() {
		names = append(names, b.Name)
	}
	threads := []int{2, 4, 8}
	spec := service.JobSpec{Kind: "sweep", Benchmarks: names, Threads: threads, SchedPolicy: pol, Timeslice: slice, SimMode: mode}
	var cells []labeledSpec
	for _, s := range harness.SweepCellSpecs(bench.Sync(), threads) {
		cells = append(cells, labeledSpec{spec: s, kind: kindSweep})
	}
	return jobSpec{spec, cells}
}

func sweepJobs() []jobSpec {
	var out []jobSpec
	for _, mode := range []string{"full", "sampled"} {
		for _, pol := range syncSweepPolicies {
			for _, slice := range syncSweepSlices {
				out = append(out, sweepJob(pol, slice, mode))
			}
		}
	}
	return out
}

// serviceCandidates lists every job spec a seed can draw.
func serviceCandidates() []jobSpec {
	out := sweepJobs()
	for _, mode := range []string{"full", "sampled"} {
		for _, slot := range policySlots {
			for _, pol := range []string{"naive", "symbiotic-ipc"} {
				out = append(out, policyJob(slot.mix, pol, slot.geo, mode))
			}
		}
		out = append(out, fig10Job(mode))
	}
	return out
}

// plannedJob is one submission; repeatOf ≥ 0 marks a resubmission of
// that earlier job of the same client.
type plannedJob struct {
	js       jobSpec
	repeatOf int
}

// Resubmissions per pass, about a quarter of all submissions: one of a
// policy job, the rest of the other stream's jobs.
const (
	policyRepeats = 1
	otherRepeats  = 7
)

// serviceSequence draws each client's job stream from the seed.
// Client 0 submits the two long policy jobs; the seed picks each
// one's seating policy and which of them runs sampled. The other
// clients submit the sixteen short sync sweeps (every seating policy
// and quantum, in both modes) in seeded order, then the two medium
// fig10 jobs (one per mode). The sweeps thus always run while a
// policy cell holds one worker, so a short job's latency is its own
// service time on the rest of the daemon whatever the seed, the
// sixteen sweeps hold the median, and the four long and medium jobs
// the 90th percentile. Each stream also resubmits some of its own earlier
// specs, which the digest cache serves (the earlier job has finished:
// a client waits for each job before the next). With one CPU, one
// client runs everything in seeded order.
func serviceSequence(seed int64, clients int) [][]plannedJob {
	rng := rand.New(rand.NewSource(seed))
	sampledSlot := rng.Intn(len(policySlots))
	var policy []jobSpec
	for i, slot := range policySlots {
		mode := "full"
		if i == sampledSlot {
			mode = "sampled"
		}
		pol := []string{"naive", "symbiotic-ipc"}[rng.Intn(2)]
		policy = append(policy, policyJob(slot.mix, pol, slot.geo, mode))
	}
	other := sweepJobs()
	rng.Shuffle(len(other), func(i, j int) { other[i], other[j] = other[j], other[i] })
	fig10 := []jobSpec{fig10Job("full"), fig10Job("sampled")}
	rng.Shuffle(len(fig10), func(i, j int) { fig10[i], fig10[j] = fig10[j], fig10[i] })
	other = append(other, fig10...)

	withRepeats := func(jobs []jobSpec, repeats int) []plannedJob {
		var out []plannedJob
		for _, js := range jobs {
			out = append(out, plannedJob{js, -1})
		}
		for k := 0; k < repeats; k++ {
			pos := 1 + rng.Intn(len(out))
			src := rng.Intn(pos)
			for out[src].repeatOf >= 0 {
				src = out[src].repeatOf
			}
			out = append(out[:pos], append([]plannedJob{{out[src].js, src}}, out[pos:]...)...)
			for i := pos + 1; i < len(out); i++ {
				if out[i].repeatOf >= pos {
					out[i].repeatOf++
				}
			}
		}
		return out
	}
	if clients <= 1 {
		all := append(policy, other...)
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return [][]plannedJob{withRepeats(all, policyRepeats+otherRepeats)}
	}
	streams := [][]plannedJob{withRepeats(policy, policyRepeats)}
	// Deal the sweeps, then the fig10 jobs, round-robin over the other
	// clients, so every stream ends on its medium jobs.
	per := make([][]jobSpec, clients-1)
	for i, js := range other {
		per[i%len(per)] = append(per[i%len(per)], js)
	}
	for c := range per {
		reps := otherRepeats / len(per)
		if c < otherRepeats%len(per) {
			reps++
		}
		streams = append(streams, withRepeats(per[c], reps))
	}
	return streams
}

// serviceObs is what the benchmark's HTTP clients saw of the daemon.
type serviceObs struct {
	SubmitMS       []float64 `json:"submit_ms"`
	QueueWaitS     []float64 `json:"queue_wait_s"`
	CachedLines    float64   `json:"cached_lines"`
	SimulatedLines float64   `json:"simulated_lines"`
}

// jobRun is one job as a client saw it.
type jobRun struct {
	submit, firstLine, done time.Time
	submitted               time.Duration
	lines                   []service.CellResult
	status                  service.JobStatus
	err                     error
}

// daemon is one in-process campaign server behind a real listener.
type daemon struct {
	srv  *service.Server
	http *http.Server
	url  string
	done chan error
}

func startDaemon(dir string, workers int) (*daemon, error) {
	srv, err := service.New(service.Config{DataDir: dir, Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.http.Serve(ln) }()
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener and drains the dispatcher, waiting for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	d.srv.Drain()
	return err
}

// servicePass runs one service-mix pass: a fresh daemon, a closed loop
// of nproc clients working through the seed's job sequence, the output
// checks, and timed restarts over the pass's data directory.
func servicePass(a passArgs, r *refs) (*passResult, error) {
	dataDir := filepath.Join(a.dir, "data")
	tr := newTracer(a.t0)
	setupFrom := time.Now()
	d, err := startDaemon(dataDir, a.workers)
	if err != nil {
		return nil, err
	}
	res := &passResult{SetupS: a.setupTime(setupFrom)}
	if a.setupOnly {
		return res, d.stop()
	}
	// Flatten the client streams into one job list; repeatOf becomes
	// an index into it.
	var seq []plannedJob
	var streamIdx [][]int
	for _, st := range serviceSequence(a.seed, a.workers) {
		base := len(seq)
		var idx []int
		for _, pj := range st {
			if pj.repeatOf >= 0 {
				pj.repeatOf += base
			}
			idx = append(idx, len(seq))
			seq = append(seq, pj)
		}
		streamIdx = append(streamIdx, idx)
	}
	runs := make([]jobRun, len(seq))
	var wg sync.WaitGroup
	start := time.Now()
	for _, idx := range streamIdx {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for _, i := range idx {
				sp := tr.begin(0, fmt.Sprintf("job %d %s", i, seq[i].js.spec.Kind), "service", -1)
				runs[i] = runJob(client, d.url, seq[i].js.spec)
				tr.end(sp)
			}
		}()
	}
	wg.Wait()
	last := start
	for _, jr := range runs {
		if jr.done.After(last) {
			last = jr.done
		}
	}
	res.WallS = last.Sub(start).Seconds()

	// The cache path alone: on the now idle daemon, resubmit every
	// fresh spec once, so every cell is a digest-cache hit. The
	// resubmissions inside the mix are timed with the rest of the
	// jobs, but can wait seconds for a worker a running cell holds.
	debug.FreeOSMemory()
	client := &http.Client{}
	var probes []plannedJob
	var probeRuns []jobRun
	for i, pj := range seq {
		if pj.repeatOf < 0 {
			probes = append(probes, plannedJob{pj.js, i})
			probeRuns = append(probeRuns, runJob(client, d.url, pj.js.spec))
		}
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	for k, jr := range probeRuns {
		cr := checkJob(probes[k], jr, runs, r)
		for _, l := range jr.lines {
			if !l.Cached {
				cr.tally.add(fmt.Sprintf("job %s: identical resubmission not served from the cache", probes[k].js.spec.Kind))
				break
			}
		}
		res.absorb(cr)
		res.CachedJobMS = append(res.CachedJobMS, jr.done.Sub(jr.submit).Seconds()*1000)
	}

	obs := &serviceObs{}
	for i, jr := range runs {
		pj := seq[i]
		lat := jr.done.Sub(jr.submit).Seconds()
		res.JobS = append(res.JobS, lat)
		obs.SubmitMS = append(obs.SubmitMS, jr.submitted.Seconds()*1000)
		if !jr.firstLine.IsZero() {
			obs.QueueWaitS = append(obs.QueueWaitS, jr.firstLine.Sub(jr.submit).Seconds())
		}
		var fresh []cellRun
		allCached := len(jr.lines) > 0
		for _, l := range jr.lines {
			if l.Cached {
				obs.CachedLines++
			} else {
				obs.SimulatedLines++
			}
			allCached = allCached && l.Cached
		}
		check := checkJob(pj, jr, runs, r)
		if !allCached {
			for _, l := range jr.lines {
				if !l.Cached {
					fresh = append(fresh, cellRun{ls: labeledSpec{spec: harness.CellSpec{Label: l.Cell}, kind: kindOf(pj.js)}, payload: l.Payload})
				}
			}
			// Counters and µops only from simulated cells: a cache hit
			// does no simulation.
			uc := checkCells(fresh, pj.js.refMode(), r, true)
			check.uops, check.counts, check.ipcErr = uc.uops, uc.counts, uc.ipcErr
		}
		res.absorb(check)
	}
	res.TailJobS = res.JobS
	res.Service = obs
	res.LedgerBytes, res.Appends = journalSize(dataDir)

	debug.FreeOSMemory() // as before the cache probes
	var recover []float64
	for k := 0; k < recoverSamples; k++ {
		t := time.Now()
		sp := tr.begin(0, "restart", "service", -1)
		d, err := startDaemon(dataDir, a.workers)
		if err != nil {
			return nil, err
		}
		if err := waitTerminal(d.url, len(seq)+len(probes)); err != nil {
			d.stop()
			return nil, err
		}
		recover = append(recover, time.Since(t).Seconds())
		tr.end(sp)
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
	res.RecoverS = median(recover)
	res.Spans = tr.spans
	return res, nil
}

func kindOf(js jobSpec) string { return js.cells[0].kind }

// runJob submits one spec and reads its results stream to the end.
func runJob(client *http.Client, url string, spec service.JobSpec) jobRun {
	var jr jobRun
	body, err := json.Marshal(spec)
	if err != nil {
		jr.err = err
		return jr
	}
	jr.submit = time.Now()
	resp, err := client.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		jr.err = err
		return jr
	}
	err = json.NewDecoder(resp.Body).Decode(&jr.status)
	resp.Body.Close()
	jr.submitted = time.Since(jr.submit)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		jr.err = fmt.Errorf("submit: HTTP %d: %v", resp.StatusCode, err)
		return jr
	}
	resp, err = client.Get(url + "/jobs/" + jr.status.ID + "/results")
	if err != nil {
		jr.err = err
		return jr
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if jr.firstLine.IsZero() {
			jr.firstLine = time.Now()
		}
		var l service.CellResult
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			jr.err = fmt.Errorf("results line: %w", err)
			break
		}
		jr.lines = append(jr.lines, l)
	}
	jr.done = time.Now()
	if jr.err == nil {
		jr.err = sc.Err()
	}
	// The stream closes when the job goes terminal; confirm its state
	// outside the timed latency.
	if jr.err == nil {
		resp, err := client.Get(url + "/jobs/" + jr.status.ID)
		if err != nil {
			jr.err = err
			return jr
		}
		defer resp.Body.Close()
		jr.err = json.NewDecoder(resp.Body).Decode(&jr.status)
	}
	return jr
}

// checkJob verifies one job: it ran, finished done with every cell ok,
// streamed each cell once, each payload matches the in-process
// reference of its mode byte for byte, and a resubmission's payloads
// equal the original job's.
func checkJob(pj plannedJob, jr jobRun, runs []jobRun, r *refs) checkResult {
	cr := checkResult{counts: map[string]float64{}}
	name := fmt.Sprintf("job %s %+v", pj.js.spec.Kind, pj.js.spec)
	if jr.err != nil {
		cr.tally.add(name + ": " + jr.err.Error())
		return cr
	}
	if jr.status.State != service.StateDone || jr.status.Failed != 0 || len(jr.lines) != len(pj.js.cells) {
		cr.tally.add(fmt.Sprintf("%s: state %s, %d failed, %d of %d cells streamed",
			name, jr.status.State, jr.status.Failed, len(jr.lines), len(pj.js.cells)))
		return cr
	}
	var orig map[string][]byte
	if pj.repeatOf >= 0 {
		orig = map[string][]byte{}
		for _, l := range runs[pj.repeatOf].lines {
			orig[l.Cell] = l.Payload
		}
	}
	var cells []cellRun
	for _, l := range jr.lines {
		c := cellRun{ls: labeledSpec{spec: harness.CellSpec{Label: l.Cell}, kind: kindOf(pj.js)}, payload: l.Payload}
		if l.Status != "ok" {
			c.fail = "status " + l.Status + " " + l.Reason
		} else if orig != nil && !bytes.Equal(orig[l.Cell], l.Payload) {
			c.fail = "resubmitted result differs from the original job's"
		}
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].ls.spec.Label < cells[j].ls.spec.Label })
	v := checkCells(cells, pj.js.refMode(), r, true)
	cr.tally = v.tally
	return cr
}

// waitTerminal polls GET /jobs until n jobs are listed, all terminal.
func waitTerminal(url string, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/jobs")
		if err != nil {
			return err
		}
		var jobs []service.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&jobs)
		resp.Body.Close()
		if err != nil {
			return err
		}
		done := len(jobs) == n
		for _, j := range jobs {
			done = done && j.State != service.StateRunning
		}
		if done {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("recovered daemon did not list %d terminal jobs within 30s", n)
}
