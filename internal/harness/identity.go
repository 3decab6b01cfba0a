// Campaign identity: the one string that decides whether a journal or
// a daemon ledger may be resumed, and which daemon cache entries a job
// may be served from. Every caller — the CLIs through cli.Common, the
// daemon through its job plan — renders it here, from the Config the
// cells actually run under and the labels of the cells the campaign
// enumerates, so two descriptions of one campaign cannot drift apart.

package harness

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"javasmt/internal/bench"
	"javasmt/internal/core"
)

// ModelVersion names the simulation model a journal's payloads came
// from. Bump it whenever a change re-blesses the goldens under
// testdata/golden, and record their new digest in modelGoldens
// (TestModelVersionCoversGoldens fails until both are done): a resumed
// campaign or a restarted daemon then refuses the older model's cells
// instead of mixing them with new ones.
const ModelVersion = 1

// modelGoldens is the FNV-64a digest of testdata/golden/* that
// ModelVersion was last bumped for.
const modelGoldens = "19ce9f0c477d7b0c"

// Identity renders the campaign identity of a campaign that runs the
// labelled cells under cfg. Only the fields that change a completed
// cell's bytes enter it — scale, pairing depth, sampling plan, seating
// policy and scheduler tuning, each in its effective form — plus the
// model version and an order-free digest of the cell labels. Execution
// knobs (Jobs, Progress, Obs, Journal, Inject, MaxCycles and the
// resilience Policy) stay out: a deadline or a cycle budget decides
// whether a cell completes, never what a completed cell holds.
func Identity(cfg Config, labels []string) string {
	sorted := append([]string(nil), labels...)
	sort.Strings(sorted)
	h := fnv.New64a()
	for _, l := range sorted {
		h.Write([]byte(l))
		h.Write([]byte{0})
	}
	sim := "sim=full"
	if cfg.Plan.Sampled() {
		sim = strings.TrimSpace(cfg.Plan.Tag())
	}
	policy := cfg.SchedPolicy
	if policy == "" {
		policy = "naive"
	}
	return fmt.Sprintf("model=%d scale=%v runs=%d %s policy=%s sched=%+v cells=%d/%016x",
		ModelVersion, cfg.Scale, cfg.Runs, sim, policy, cfg.SchedParams.WithDefaults(), len(sorted), h.Sum64())
}

// Labels returns the labels of enumerated cells, the second input of
// Identity.
func Labels(cells []CellSpec) []string {
	labels := make([]string, len(cells))
	for i, c := range cells {
		labels[i] = c.Label
	}
	return labels
}

// RunLabel is the cell label RunResilient journals one run under: the
// benchmark plus every per-run option that changes the result's bytes
// (threads, machine shape, partition, trace-cache sharing), so a
// journal never serves one configuration's result to another.
func RunLabel(b *bench.Benchmark, opts Options) string {
	machine := fmt.Sprintf("ht=%v", opts.HT)
	if (opts.Geometry != core.Geometry{}) {
		machine = fmt.Sprintf("geo=%v", opts.Geometry)
	}
	return fmt.Sprintf("%s t=%d %s partition=%v tc-shared-tags=%v",
		b.Name, opts.Threads, machine, opts.Partition, opts.TCSharedTags)
}

// PairLabel is the cell label of the §4.2 pairing of a with b.
func PairLabel(a, b *bench.Benchmark) string { return "pair " + a.Name + "+" + b.Name }
