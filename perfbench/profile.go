package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf decoder, so the benchmark
// needs nothing outside the standard library, and splits the samples
// by the simulator's packages.

// stack is one profile sample: its CPU time and its frames' function
// names, innermost first (inlined frames expanded).
type stack struct {
	ns     int64
	frames []string
}

// parseProfile decodes a gzipped CPU profile into its samples.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		valueIdx  = -1
		types     []int64
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			})
			types = append(types, typ)
			return err
		case 2: // sample
			var s sample
			err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, w, v, bb)
				case 2:
					for _, x := range appendVarints(nil, w, v, bb) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(bb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for i, t := range types {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return "?"
		}
		return strs[i]
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			continue
		}
		st := stack{ns: s.values[valueIdx]}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				st.frames = append(st.frames, str(funcNames[f]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendVarints appends a repeated varint field's values, which the
// encoder may write packed (wire type 2) or one per field.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// modulePrefix is the import-path prefix of the simulator's packages.
const modulePrefix = "javasmt/internal/"

// namedPackages are the layers the per-layer metrics are named after.
var namedPackages = []string{
	"core", "simos", "jvm", "cache", "tlb", "branch", "mem", "sampling",
	"bench", "bytecode", "harness", "sched", "service", "resilience",
}

// funcPackage returns the import path of a pprof function name such as
// "javasmt/internal/core.(*CPU).Step" or "runtime.mallocgc". Type
// arguments of a generic function ("harness.runCell[go.shape.struct
// {...}]") may hold slashes of their own, so they are cut off first.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// isRuntime reports whether an import path belongs to the Go runtime.
func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

// attribute names the layer a sample is charged to. A sample whose
// innermost frame is in the Go runtime (allocation, GC, scheduling,
// syscalls) is "runtime". Otherwise it goes to the innermost frame in
// a javasmt/internal package ("core", "simos", ...), skipping other
// standard-library frames so that, say, sort or math called from core
// counts as core; the benchmark's own frames stop the walk as
// "perfbench", and a stack with neither is "other".
func attribute(frames []string) string {
	if len(frames) > 0 && isRuntime(funcPackage(frames[0])) {
		return "runtime"
	}
	for _, f := range frames {
		pkg := funcPackage(f)
		switch {
		case strings.HasPrefix(pkg, modulePrefix):
			return strings.TrimPrefix(pkg, modulePrefix)
		case pkg == "main":
			return "perfbench"
		}
	}
	return "other"
}

// profileSplit is a CPU profile reduced to the quantities the
// per-layer metrics need.
type profileSplit struct {
	TotalS float64            `json:"total_s"`
	SelfS  map[string]float64 `json:"self_s"`
	// CumS holds time under marker frames (see cumMarkers).
	CumS map[string]float64 `json:"cum_s"`
	// FillUnderStepS is simos fill time beneath a detailed Step.
	FillUnderStepS float64 `json:"fill_under_step_s"`
	// GCS is garbage-collection and allocation time.
	GCS float64 `json:"gc_s"`
}

// cumMarkers maps a cumulative metric to the frames that open it.
var cumMarkers = map[string]func(fn string) bool{
	"step":       func(fn string) bool { return fn == "javasmt/internal/core.(*CPU).Step" },
	"functional": func(fn string) bool { return fn == "javasmt/internal/core.(*CPU).RunFunctional" },
	"fill":       func(fn string) bool { return fn == "javasmt/internal/simos.(*cpuState).Fill" },
	"build": func(fn string) bool {
		return strings.HasPrefix(fn, "javasmt/internal/bench.build") ||
			strings.HasPrefix(fn, "javasmt/internal/bytecode.(*ProgramBuilder).Link") ||
			strings.HasPrefix(fn, "javasmt/internal/bytecode.(*Program).Link") ||
			strings.HasPrefix(fn, "javasmt/internal/bytecode.(*Program).Verify")
	},
}

// gcFrames open garbage-collector or allocator work.
var gcFrames = map[string]bool{
	"runtime.mallocgc": true, "runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true, "runtime.gcStart": true,
	"runtime.markroot": true, "runtime.gcDrain": true,
}

// split reduces samples to self time per layer and time under the
// marker frames.
func split(samples []stack) profileSplit {
	ps := profileSplit{SelfS: map[string]float64{}, CumS: map[string]float64{}}
	for _, s := range samples {
		sec := float64(s.ns) / 1e9
		ps.TotalS += sec
		ps.SelfS[attribute(s.frames)] += sec
		seen := map[string]bool{}
		gc := false
		for _, f := range s.frames {
			for name, match := range cumMarkers {
				if !seen[name] && match(f) {
					seen[name] = true
					ps.CumS[name] += sec
				}
			}
			gc = gc || gcFrames[f]
		}
		if seen["step"] && seen["fill"] {
			ps.FillUnderStepS += sec
		}
		if gc {
			ps.GCS += sec
		}
	}
	return ps
}

// coveredFrac is the share of profile time charged to the named
// packages plus the Go runtime.
func (ps profileSplit) coveredFrac() float64 {
	if ps.TotalS == 0 {
		return 0
	}
	c := ps.SelfS["runtime"]
	for _, p := range namedPackages {
		c += ps.SelfS[p]
	}
	return c / ps.TotalS
}

// uncovered lists the layers outside the named set, largest first.
func (ps profileSplit) uncovered() []string {
	named := map[string]bool{"runtime": true}
	for _, p := range namedPackages {
		named[p] = true
	}
	var out []string
	for k := range ps.SelfS {
		if !named[k] {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return ps.SelfS[out[i]] > ps.SelfS[out[j]] })
	return out
}
