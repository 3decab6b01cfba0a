package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"javasmt/internal/counters"
	"javasmt/internal/harness"
	"javasmt/internal/sampling"
)

// Cell kinds: which harness enumerator a cell label came from, and so
// which typed value its payload must decode into.
const (
	kindChar   = "characterization"
	kindPair   = "pairings"
	kindFig10  = "fig10"
	kindFig12  = "fig12"
	kindSweep  = "sweep"
	kindPolicy = "policy"
)

// cellInfo is what the benchmark reads out of one cell payload.
type cellInfo struct {
	// ipcs are the IPC figures the payload carries (fig10 carries
	// cycles only; since µop counts are exact in every mode its IPCs
	// are stood in for by 1e9/cycles, which gives the same ratios).
	ipcs []float64
	// uops is the retired µop count, 0 when the payload has no counters.
	uops     uint64
	counters []counters.File
	samples  []*sampling.Estimate
	gcCount  int
	// runs holds RunsA, RunsB and the protocol's Runs for pair cells.
	pairRuns *[3]int
}

// decodeCell strictly decodes a cell payload (the harness's journal
// record {"v": T}) into its typed value and extracts what the metrics
// need. An error means the payload does not decode.
func decodeCell(kind string, payload []byte, runs int) (cellInfo, error) {
	var ci cellInfo
	strict := func(v any) error {
		dec := json.NewDecoder(bytes.NewReader(payload))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			return fmt.Errorf("payload does not decode as %s: %w", kind, err)
		}
		return nil
	}
	addCounters := func(f counters.File) {
		ci.counters = append(ci.counters, f)
		ci.ipcs = append(ci.ipcs, f.IPC())
		ci.uops += f.Get(counters.Instructions)
	}
	switch kind {
	case kindChar:
		var rec struct{ V harness.CharRun }
		if err := strict(&rec); err != nil {
			return ci, err
		}
		if rec.V.Result == nil {
			return ci, fmt.Errorf("payload has no result")
		}
		addCounters(rec.V.Result.Counters)
		ci.gcCount = rec.V.Result.GCCount
		ci.samples = append(ci.samples, rec.V.Result.Sampling)
	case kindPair:
		var rec struct{ V harness.PairResult }
		if err := strict(&rec); err != nil {
			return ci, err
		}
		addCounters(rec.V.Counters)
		ci.samples = append(ci.samples, rec.V.Sampling)
		ci.pairRuns = &[3]int{rec.V.RunsA, rec.V.RunsB, runs}
	case kindFig10:
		var rec struct{ V harness.Fig10Row }
		if err := strict(&rec); err != nil {
			return ci, err
		}
		for _, c := range []uint64{rec.V.CyclesOff, rec.V.CyclesOn, rec.V.CyclesDyn} {
			if c == 0 {
				return ci, fmt.Errorf("fig10 payload has a zero cycle count")
			}
			ci.ipcs = append(ci.ipcs, 1e9/float64(c))
		}
	case kindFig12:
		var rec struct{ V harness.Fig12Row }
		if err := strict(&rec); err != nil {
			return ci, err
		}
		ci.ipcs = append(ci.ipcs, rec.V.IPC)
	case kindSweep:
		var rec struct{ V harness.SweepCell }
		if err := strict(&rec); err != nil {
			return ci, err
		}
		addCounters(rec.V.Counters)
	case kindPolicy:
		var rec struct{ V harness.PolicyCell }
		if err := strict(&rec); err != nil {
			return ci, err
		}
		addCounters(rec.V.Counters)
	default:
		return ci, fmt.Errorf("unknown cell kind %q", kind)
	}
	for _, x := range ci.ipcs {
		if x <= 0 {
			return ci, fmt.Errorf("payload has a non-positive IPC")
		}
	}
	return ci, nil
}

// digest is the reference fingerprint of a payload's exact bytes.
func digest(payload []byte) string {
	h := fnv.New128a()
	h.Write(payload)
	return fmt.Sprintf("%x", h.Sum(nil))
}
