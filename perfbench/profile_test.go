package main

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// pb is a minimal protobuf writer for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(x uint64) {
	for x >= 0x80 {
		b.WriteByte(byte(x) | 0x80)
		x >>= 7
	}
	b.WriteByte(byte(x))
}

func (b *pb) u(num int, v uint64) { b.varint(uint64(num)<<3 | 0); b.varint(v) }

func (b *pb) msg(num int, m []byte) {
	b.varint(uint64(num)<<3 | 2)
	b.varint(uint64(len(m)))
	b.Write(m)
}

// synthProfile encodes a CPU profile whose samples are given as stacks
// of function names (innermost first) with their nanoseconds. Location
// 1 carries two lines to exercise inlined frames.
func synthProfile(t *testing.T, samples []stack) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p pb
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt pb
		vt.u(1, strIdx(st[0]))
		vt.u(2, strIdx(st[1]))
		p.msg(1, vt.Bytes())
	}
	funcs := map[string]uint64{}
	var locs pb
	nextLoc := uint64(1)
	for _, s := range samples {
		var ids pb
		// The two innermost frames share one location, as an inlined
		// call does; the rest get one location each.
		frames := s.frames
		group := [][]string{}
		if len(frames) >= 2 {
			group = append(group, frames[:2])
			frames = frames[2:]
		}
		for _, f := range frames {
			group = append(group, []string{f})
		}
		for _, g := range group {
			var loc pb
			loc.u(1, nextLoc)
			for _, f := range g {
				if funcs[f] == 0 {
					funcs[f] = uint64(len(funcs) + 1)
				}
				var line pb
				line.u(1, funcs[f])
				loc.msg(4, line.Bytes())
			}
			locs.msg(4, loc.Bytes())
			ids.varint(nextLoc)
			nextLoc++
		}
		var vals pb
		vals.varint(1)
		vals.varint(uint64(s.ns))
		var smp pb
		smp.msg(1, ids.Bytes()) // packed location ids
		smp.msg(2, vals.Bytes())
		p.msg(2, smp.Bytes())
	}
	p.Write(locs.Bytes())
	for name, id := range funcs {
		var fn pb
		fn.u(1, id)
		fn.u(2, strIdx(name))
		p.msg(5, fn.Bytes())
	}
	for _, s := range strs {
		p.msg(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p.Bytes())
	zw.Close()
	return z.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	const ms = int64(1e6)
	in := []stack{
		// Core self time under Step.
		{10 * ms, []string{"javasmt/internal/core.(*CPU).retireCore", "javasmt/internal/core.(*CPU).Step", "javasmt/internal/sampling.(*Controller).Run", "runtime.goexit"}},
		// math called from cache counts as cache.
		{4 * ms, []string{"math.Log", "javasmt/internal/cache.(*Cache).Access", "javasmt/internal/core.(*CPU).Step", "runtime.goexit"}},
		// simos fill beneath Step, with JVM self time.
		{6 * ms, []string{"javasmt/internal/jvm.(*Thread).Fill", "javasmt/internal/simos.(*cpuState).Fill", "javasmt/internal/core.(*CPU).Step", "runtime.goexit"}},
		// Allocation is runtime and GC time.
		{3 * ms, []string{"runtime.mallocgc", "runtime.newobject", "javasmt/internal/bench.buildJack", "runtime.goexit"}},
		// Functional tier.
		{2 * ms, []string{"javasmt/internal/core.(*CPU).RunFunctional", "javasmt/internal/sampling.(*Controller).Run", "runtime.goexit"}},
		// The benchmark's own HTTP client, and a bare stdlib stack.
		{1 * ms, []string{"encoding/json.Unmarshal", "main.runJob", "runtime.goexit"}},
		{1 * ms, []string{"net/http.(*conn).serve", "runtime.goexit"}},
	}
	samples, err := parseProfile(synthProfile(t, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(in) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(in))
	}
	for i := range in {
		if samples[i].ns != in[i].ns || len(samples[i].frames) != len(in[i].frames) {
			t.Fatalf("sample %d decoded as %+v, want %+v", i, samples[i], in[i])
		}
	}
	ps := split(samples)
	want := map[string]float64{"core": 0.012, "cache": 0.004, "jvm": 0.006, "runtime": 0.003, "perfbench": 0.001, "other": 0.001}
	for k, v := range want {
		if !near(ps.SelfS[k], v) {
			t.Errorf("self[%s] = %v, want %v", k, ps.SelfS[k], v)
		}
	}
	cum := map[string]float64{"step": 0.020, "fill": 0.006, "functional": 0.002, "build": 0.003}
	for k, v := range cum {
		if !near(ps.CumS[k], v) {
			t.Errorf("cum[%s] = %v, want %v", k, ps.CumS[k], v)
		}
	}
	if !near(ps.FillUnderStepS, 0.006) || !near(ps.GCS, 0.003) || !near(ps.TotalS, 0.027) {
		t.Errorf("fill under step %v, gc %v, total %v", ps.FillUnderStepS, ps.GCS, ps.TotalS)
	}
	if got := ps.coveredFrac(); !near(got, 25.0/27) {
		t.Errorf("covered %v, want 25/27", got)
	}
	if u := ps.uncovered(); len(u) != 2 {
		t.Errorf("uncovered %v, want perfbench and other", u)
	}
}

func TestFuncPackage(t *testing.T) {
	for in, want := range map[string]string{
		"javasmt/internal/core.(*CPU).Step": "javasmt/internal/core",
		"runtime.mallocgc":                  "runtime",
		"internal/runtime/syscall.Syscall6": "internal/runtime/syscall",
		"main.main.func1":                   "main",
		"net/http.(*conn).serve":            "net/http",
		"javasmt/internal/harness.runCell[go.shape.struct { Result *javasmt/internal/harness.Result }]": "javasmt/internal/harness",
	} {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}
