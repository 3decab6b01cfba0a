package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"javasmt/internal/bench"
	"javasmt/internal/core"
	"javasmt/internal/counters"
	"javasmt/internal/sampling"
)

// marshalT JSON-encodes v, failing the test on error.
func marshalT(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServerMixShape pins the deterministic mix construction: thread
// totals add up, PseudoJBB VMs stay within the per-VM cap, and the same
// total always builds the same mix.
func TestServerMixShape(t *testing.T) {
	for _, total := range []int{1, 4, 8, 32, 64, 128, 256} {
		m := ServerMix(total)
		if m.Threads() != total {
			t.Fatalf("ServerMix(%d).Threads() = %d", total, m.Threads())
		}
		for _, p := range m.Parts {
			if _, ok := bench.ByName(p.Benchmark); !ok {
				t.Fatalf("ServerMix(%d) names unknown benchmark %q", total, p.Benchmark)
			}
			if p.Benchmark == "PseudoJBB" && p.Threads > 32 {
				t.Fatalf("ServerMix(%d) has a %d-thread PseudoJBB VM", total, p.Threads)
			}
		}
		if !bytes.Equal(marshalT(t, m), marshalT(t, ServerMix(total))) {
			t.Fatalf("ServerMix(%d) is not deterministic", total)
		}
	}
}

// TestPolicyNaiveEquivalence pins the API redesign's compatibility
// contract: an explicit -policy naive run is byte-identical to the
// default (policy-free) run on every benchmark, in full and sampled
// mode — the nil fast path IS the naive policy.
func TestPolicyNaiveEquivalence(t *testing.T) {
	plans := []struct {
		name string
		plan sampling.Plan
	}{
		{"full", sampling.FullPlan()},
		{"sampled", sampling.DefaultSampledPlan()},
	}
	for _, pl := range plans {
		t.Run(pl.name, func(t *testing.T) {
			for _, b := range bench.All() {
				opts := Options{HT: true, Threads: 2, Scale: bench.Tiny, Verify: true, Plan: pl.plan}
				def, err := Run(b, opts)
				if err != nil {
					t.Fatalf("%s default: %v", b.Name, err)
				}
				opts.SchedPolicy = "naive"
				naive, err := Run(b, opts)
				if err != nil {
					t.Fatalf("%s naive: %v", b.Name, err)
				}
				if !bytes.Equal(marshalT(t, def), marshalT(t, naive)) {
					t.Errorf("%s: -policy naive diverges from the default run", b.Name)
				}
			}
		})
	}
}

// testMix is a small oversubscribed mix for determinism tests: five
// threads on a two-context machine keeps the run queue busy (and the
// policies deciding) without PseudoJBB-scale runtime.
func testMix() Mix {
	return Mix{Name: "det-mix", Parts: []MixPart{
		{Benchmark: "PseudoJBB", Threads: 3},
		{Benchmark: "compress", Threads: 1},
		{Benchmark: "mpegaudio", Threads: 1},
	}}
}

// TestPolicySweepDeterminism pins the engine contract for the new
// experiment: the sweep's cells are byte-identical at any worker count.
func TestPolicySweepDeterminism(t *testing.T) {
	run := func(jobs int) []PolicyCell {
		cfg := DefaultConfig()
		cfg.Jobs = jobs
		cells, _, err := RunPolicySweep(cfg, []string{"naive", "roundrobin-core", "symbiotic-ipc", "contention-aware"},
			[]Mix{testMix()}, []core.Geometry{{Cores: 1, ContextsPerCore: 2}})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for _, c := range cells {
			if c.Failed != "" {
				t.Fatalf("jobs=%d: cell %s policy=%s failed: %s", jobs, c.Mix, c.Policy, c.Failed)
			}
		}
		return cells
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(marshalT(t, serial), marshalT(t, parallel)) {
		t.Fatal("policy sweep cells differ between -j 1 and -j 8")
	}
}

// TestPolicySweepJournalResume pins checkpoint/resume for the new cell
// type: a resumed sweep decodes every PolicyCell from the journal
// byte-identically instead of re-simulating.
func TestPolicySweepJournalResume(t *testing.T) {
	dir := t.TempDir()
	policies := []string{"naive", "symbiotic-ipc", "contention-aware", "roundrobin-core"}
	mixes := []Mix{testMix()}
	geos := []core.Geometry{{Cores: 1, ContextsPerCore: 2}}

	cfg := DefaultConfig()
	cfg.Journal = openJournal(t, dir, false)
	want, _, err := RunPolicySweep(cfg, policies, mixes, geos)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Journal.Close(); err != nil {
		t.Fatal(err)
	}

	cfg = DefaultConfig()
	cfg.Journal = openJournal(t, dir, true)
	defer cfg.Journal.Close()
	if got := cfg.Journal.Resumed(); got != len(want) {
		t.Fatalf("resumed %d cells, want %d", got, len(want))
	}
	got, _, err := RunPolicySweep(cfg, policies, mixes, geos)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalT(t, want), marshalT(t, got)) {
		t.Fatal("resumed policy sweep diverges from the original run")
	}
}

// TestMetamorphicSymbioticBeatsNaive is the redesign's metamorphic
// check: on an oversubscribed server mix, steering co-runners by their
// measured IPC must not lose aggregate throughput against blind FIFO
// seating. (The crafted mix pairs pipeline-bound transaction threads
// with memory-bound utilities, the regime the heuristic targets.)
func TestMetamorphicSymbioticBeatsNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a PseudoJBB server mix twice")
	}
	mix := ServerMix(8)
	geo := core.Geometry{Cores: 2, ContextsPerCore: 2}
	run := func(policy string) float64 {
		res, err := RunMix(mix, Options{Geometry: geo, Scale: bench.Tiny, Verify: true, SchedPolicy: policy})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		return res.IPC()
	}
	naive := run("naive")
	symb := run("symbiotic-ipc")
	if symb < naive {
		t.Fatalf("symbiotic-ipc aggregate IPC %.3f < naive %.3f on a hostile mix", symb, naive)
	}
}

// TestRunMixSampledVerifies covers the policy path under interval
// sampling: the mix must still run to completion and verify every VM's
// published results (policy decisions consult only simulation state, so
// sampled mode changes timing but never correctness).
func TestRunMixSampledVerifies(t *testing.T) {
	res, err := RunMix(testMix(), Options{Geometry: core.Geometry{Cores: 1, ContextsPerCore: 2},
		Scale: bench.Tiny, Verify: true, SchedPolicy: "symbiotic-ipc", Plan: sampling.DefaultSampledPlan()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampling == nil {
		t.Fatal("sampled mix run carries no sampling estimate")
	}
}

// TestRunMixRejectsUnknowns pins the error paths of the new surface.
func TestRunMixRejectsUnknowns(t *testing.T) {
	if _, err := RunMix(testMix(), Options{Scale: bench.Tiny, SchedPolicy: "bogus"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	bad := Mix{Name: "bad", Parts: []MixPart{{Benchmark: "nope", Threads: 1}}}
	if _, err := RunMix(bad, Options{Scale: bench.Tiny}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// BenchmarkPolicySweep measures the policy-path simulation rate (MB/s
// at 1 byte per µop, comparable to BenchmarkSimSpeed): the naive fast
// path against the metric-driven policy with its SchedView scans and
// migration cost model.
func BenchmarkPolicySweep(b *testing.B) {
	mix := testMix()
	geo := core.Geometry{Cores: 2, ContextsPerCore: 2}
	for _, pol := range []string{"naive", "symbiotic-ipc"} {
		b.Run(pol, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := RunMix(mix, Options{Geometry: geo, Scale: bench.Tiny, SchedPolicy: pol})
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(res.Counters.Get(counters.Instructions)))
			}
		})
	}
}
