package service

import (
	"flag"
	"strings"
	"testing"

	"javasmt/internal/bench"
	"javasmt/internal/cli"
	"javasmt/internal/harness"
)

func TestResolveRejectsBadSpecs(t *testing.T) {
	bad := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"unknown kind", JobSpec{Kind: "frobnicate"}, "unknown kind"},
		{"unknown benchmark", JobSpec{Kind: "sweep", Benchmarks: []string{"nope"}}, "unknown benchmark"},
		{"bad scale", JobSpec{Kind: "sweep", Scale: "huge"}, "scale"},
		{"zero thread", JobSpec{Kind: "sweep", Threads: []int{0}}, "thread count"},
		{"negative runs", JobSpec{Kind: "pairings", Runs: -1}, "runs"},
		{"negative retries", JobSpec{Kind: "sweep", Retries: -1}, "retries"},
		{"bad sim mode", JobSpec{Kind: "sweep", SimMode: "approximate"}, "sim_mode"},
		{"bad cell deadline", JobSpec{Kind: "sweep", CellDeadline: "soon"}, "cell_deadline"},
		{"bad job deadline", JobSpec{Kind: "sweep", JobDeadline: "-3s"}, "job_deadline"},
		{"geometry without geometries", JobSpec{Kind: "geometry"}, "needs geometries"},
		{"policy without axes", JobSpec{Kind: "policy", Policies: []string{"greedy"}}, "needs policies"},
		{"bad geometry", JobSpec{Kind: "geometry", Geometries: []string{"2by2"}}, "geometry"},
		{"zero mix", JobSpec{Kind: "policy", Policies: []string{"greedy"}, Mixes: []int{0}, Geometries: []string{"2x2"}}, "mix size"},
	}
	for _, tc := range bad {
		if _, err := resolve(tc.spec); err == nil {
			t.Errorf("%s: resolve accepted %+v", tc.name, tc.spec)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestResolveDefaults(t *testing.T) {
	p, err := resolve(JobSpec{Kind: "sweep"})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.benchmarks) == 0 {
		t.Fatal("sweep did not default to the full benchmark set")
	}
	if len(p.threads) != 2 {
		t.Fatalf("sweep threads defaulted to %v", p.threads)
	}
	if len(p.cells) == 0 {
		t.Fatal("default sweep enumerated no cells")
	}

	p, err = resolve(JobSpec{Kind: "fig12"})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.threads) != 4 {
		t.Fatalf("fig12 threads defaulted to %v", p.threads)
	}
}

func TestIdentityCanonical(t *testing.T) {
	spec := JobSpec{Kind: "sweep", Benchmarks: []string{"compress"}, Threads: []int{1}}
	p1, err := resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p1.identity != p2.identity {
		t.Fatalf("identity not deterministic: %q vs %q", p1.identity, p2.identity)
	}

	// Simulation-relevant knobs must change the identity...
	for _, other := range []JobSpec{
		{Kind: "sweep", Benchmarks: []string{"compress"}, Threads: []int{2}},
		{Kind: "sweep", Benchmarks: []string{"compress"}, Threads: []int{1}, SimMode: "sampled"},
		{Kind: "sweep", Benchmarks: []string{"compress"}, Threads: []int{1}, SchedPolicy: "symbiotic-ipc"},
		{Kind: "sweep", Benchmarks: []string{"compress"}, Threads: []int{1}, Timeslice: 5000},
		{Kind: "sweep", Benchmarks: []string{"compress"}, Threads: []int{1}, Scale: "small"},
	} {
		q, err := resolve(other)
		if err != nil {
			t.Fatal(err)
		}
		if q.identity == p1.identity {
			t.Errorf("%+v shares the identity of %+v", other, spec)
		}
	}
	// ...execution-only knobs must not: the same cells produce the same
	// bytes whatever the deadline or budget, so they share cache entries.
	timed, _ := resolve(JobSpec{Kind: "sweep", Benchmarks: []string{"compress"}, Threads: []int{1},
		CellDeadline: "30s", Retries: 2, JobDeadline: "5m", CycleBudget: 1 << 40})
	if timed.identity != p1.identity {
		t.Fatalf("execution knobs leaked into the identity:\n%q\n%q", timed.identity, p1.identity)
	}
}

// TestIdentityMatchesSweepCLI pins that the daemon and the sweep tool
// name one campaign identically: `sweep -bench MolDyn -threads 1,2,4,8
// -scale small` journals under the identity the daemon gives the same
// campaign's JobSpec (scripts/service_smoke.sh checks the same on the
// real binaries' meta.json files).
func TestIdentityMatchesSweepCLI(t *testing.T) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	cf := cli.Register("sweep", fs, cli.Options{Jobs: true})
	if err := fs.Parse([]string{"-scale", "small"}); err != nil {
		t.Fatal(err)
	}
	c, err := cf.Finish()
	if err != nil {
		t.Fatal(err)
	}
	moldyn, _ := bench.ByName("MolDyn")
	threads := []int{1, 2, 4, 8}
	cliID := harness.Identity(c.Config, harness.Labels(harness.SweepCellSpecs([]*bench.Benchmark{moldyn}, threads)))

	p, err := resolve(JobSpec{Kind: "sweep", Benchmarks: []string{"MolDyn"}, Threads: threads, Scale: "small"})
	if err != nil {
		t.Fatal(err)
	}
	if p.identity != cliID {
		t.Fatalf("daemon identity %q != sweep identity %q", p.identity, cliID)
	}
}
