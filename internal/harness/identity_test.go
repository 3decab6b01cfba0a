package harness

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"javasmt/internal/faultinject"
	"javasmt/internal/obs"
	"javasmt/internal/resilience"
	"javasmt/internal/sampling"
)

// TestModelVersionCoversGoldens ties ModelVersion to the goldens: a
// change that re-blesses testdata/golden/* changes the model, so
// journals and daemon caches written before it must stop resuming —
// which only happens if ModelVersion moves with the goldens.
func TestModelVersionCoversGoldens(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no goldens found (%v)", err)
	}
	sort.Strings(paths)
	h := fnv.New64a()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.Base(p)))
		h.Write([]byte{0})
		h.Write(data)
		h.Write([]byte{0})
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != modelGoldens {
		t.Fatalf("goldens changed: bump ModelVersion (now %d) and set modelGoldens to %q", ModelVersion, got)
	}
}

// TestIdentityFieldClassification sorts every Config field into the
// campaign identity or the execution-only set, and checks each side
// behaves: changing an identity field changes Identity, changing an
// execution field does not. A new Config field fails the test until it
// is classified.
func TestIdentityFieldClassification(t *testing.T) {
	identity := map[string]func(*Config){
		"Scale":       func(c *Config) { c.Scale++ },
		"Runs":        func(c *Config) { c.Runs++ },
		"Plan":        func(c *Config) { c.Plan = sampling.DefaultSampledPlan() },
		"SchedPolicy": func(c *Config) { c.SchedPolicy = "symbiotic-ipc" },
		"SchedParams": func(c *Config) { c.SchedParams.Timeslice = 1234 },
	}
	execution := map[string]func(*Config){
		"Jobs":      func(c *Config) { c.Jobs = 8 },
		"Progress":  func(c *Config) { c.Progress = func(string) {} },
		"Obs":       func(c *Config) { c.Obs = obs.New(obs.Config{Metrics: true}) },
		"Journal":   func(c *Config) { c.Journal = &resilience.Journal{} },
		"Inject":    func(c *Config) { c.Inject = &faultinject.Injector{} },
		"MaxCycles": func(c *Config) { c.MaxCycles = 1 },
		"Policy":    func(c *Config) { c.Policy = resilience.CellPolicy{CycleBudget: 1, Retries: 3} },
	}
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		_, inID := identity[name]
		_, inExec := execution[name]
		if inID == inExec {
			t.Errorf("Config.%s must be classified as exactly one of identity or execution-only", name)
		}
	}

	labels := []string{"cell a", "cell b"}
	base := Identity(DefaultConfig(), labels)
	for name, mutate := range identity {
		cfg := DefaultConfig()
		mutate(&cfg)
		if Identity(cfg, labels) == base {
			t.Errorf("identity field %s does not change the identity", name)
		}
	}
	for name, mutate := range execution {
		cfg := DefaultConfig()
		mutate(&cfg)
		if got := Identity(cfg, labels); got != base {
			t.Errorf("execution-only field %s changes the identity:\n%s\n%s", name, got, base)
		}
	}
}

// TestIdentityCanonical pins what does not change the identity: cell
// order, and spellings of the same effective configuration.
func TestIdentityCanonical(t *testing.T) {
	cfg := DefaultConfig()
	if Identity(cfg, []string{"a", "b"}) != Identity(cfg, []string{"b", "a"}) {
		t.Error("identity depends on cell enumeration order")
	}
	if Identity(cfg, []string{"a", "b"}) == Identity(cfg, []string{"a", "b", "c"}) {
		t.Error("identity ignores the cell set")
	}
	named := cfg
	named.SchedPolicy = "naive"
	named.SchedParams.Timeslice = 30_000 // the built-in default
	if Identity(cfg, nil) != Identity(named, nil) {
		t.Errorf("equivalent scheduler spellings differ:\n%s\n%s", Identity(cfg, nil), Identity(named, nil))
	}
}

// TestTCSharedTagsResume is the regression for a journal that served
// the plain HT run's counters to the trace-cache sharing ablation:
// both ran under the bare benchmark name. Each configuration now
// journals under its own RunLabel, so a resumed ablation run neither
// shares the plain run's identity nor finds its cell.
func TestTCSharedTagsResume(t *testing.T) {
	jack := mustBench(t, "jack")
	plain := Options{HT: true, Threads: 1, Verify: true}
	shared := plain
	shared.TCSharedTags = true
	if Identity(DefaultConfig(), []string{RunLabel(jack, plain)}) ==
		Identity(DefaultConfig(), []string{RunLabel(jack, shared)}) {
		t.Fatal("-tc-shared-tags does not change the campaign identity")
	}

	dir := t.TempDir()
	meta := resilience.Meta{Tool: "test", Config: "one journal for both runs"}
	j, err := resilience.Open(dir, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Journal = j
	base, fail, err := RunResilient(jack, plain, cfg)
	if err != nil || fail != nil {
		t.Fatalf("plain run: %v %v", err, fail)
	}
	j.Close()

	j, err = resilience.Open(dir, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cfg.Journal = j
	got, fail, err := RunResilient(jack, shared, cfg)
	if err != nil || fail != nil {
		t.Fatalf("ablation run: %v %v", err, fail)
	}
	fresh, err := Run(jack, Options{HT: true, Threads: 1, Scale: cfg.Scale, TCSharedTags: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles == base.Cycles || got.Cycles != fresh.Cycles {
		t.Fatalf("resumed ablation run = %d cycles, plain run %d, fresh ablation run %d",
			got.Cycles, base.Cycles, fresh.Cycles)
	}
}
