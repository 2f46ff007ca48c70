// Command benchsnap snapshots the simulator micro-benchmarks
// (BenchmarkSim<workload>: one bare timing.Run of 50k instructions each,
// mirroring the root bench_test.go targets), the sweep-memoization pair
// (BenchmarkSweepCached/BenchmarkSweepUncached: the same selection grid with
// and without the stage cache), the trace-replay benchmarks
// (BenchmarkRecordTraceVprP/BenchmarkReplayVprP bracket one cell's record
// and replay cost against BenchmarkSimVprPPreexec's streamed simulation;
// BenchmarkSweepReplayGrid/BenchmarkSweepFullSimGrid are the same selection
// grid with the replay fast path on and forced off), the functional profiler
// (BenchmarkProfileVprR, mirroring internal/slice's BenchmarkProfile), and
// the workload-synthesis pair (BenchmarkSynthGenerate/BenchmarkAssemble,
// mirroring synth/bench_test.go) into a JSON baseline, and checks a fresh
// run against a committed baseline.
//
//	benchsnap -o BENCH_baseline.json          # record a baseline
//	benchsnap -check BENCH_baseline.json      # fail on gross regressions
//
// Checking compares allocations per op — the machine-independent regression
// signal the zero-allocation core is defended by — against a tolerance
// (default 30%, plus a small absolute slack for map-growth noise). Time per
// op is printed for information but never fails the check: the baseline's
// nanoseconds were measured on whatever machine recorded it, not on the
// machine running the check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"preexec"
	"preexec/internal/advantage"
	"preexec/internal/obs"
	"preexec/internal/selector"
	"preexec/internal/slice"
	"preexec/internal/timing"
	"preexec/internal/workload"
	"preexec/synth"
)

// Result is one benchmark measurement.
type Result struct {
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// Snapshot is the file format: benchmark name -> measurement, plus the
// environment the times were recorded on.
type Snapshot struct {
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	RecordedAt string            `json:"recorded_at"`
	Note       string            `json:"note"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// simBench returns the closure benchmarking one bare base-mode timing.Run,
// identical in shape to the root package's BenchmarkSim<workload> targets.
func simBench(name string) (func(b *testing.B), error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	p := w.Build(1)
	cfg := timing.DefaultConfig()
	cfg.MaxInsts = 50_000
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := timing.Run(p, nil, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}

// preexecBench returns the closure for the pre-execution-mode benchmark
// (BenchmarkSimVprPPreexec's shape): profile + select once, then measure
// timing.Run with the selected p-threads.
func preexecBench() (func(b *testing.B), error) {
	w, err := workload.ByName("vpr.p")
	if err != nil {
		return nil, err
	}
	p := w.Build(1)
	forest, err := slice.ProfileWhole(p, slice.ProfileOptions{MaxInsts: 50_000})
	if err != nil {
		return nil, err
	}
	res := selector.SelectForest(forest, selector.Options{Params: advantage.DefaultParams(1.5), Merge: true})
	cfg := timing.DefaultConfig()
	cfg.MaxInsts = 50_000
	cfg.Mode = timing.ModeNormal
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := timing.Run(p, res.PThreads, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}

// recordBench returns the closure for BenchmarkRecordTraceVprP's shape: one
// base-run trace recording of the 50k-instruction vpr.p run.
func recordBench() (func(b *testing.B), error) {
	w, err := workload.ByName("vpr.p")
	if err != nil {
		return nil, err
	}
	p := w.Build(1)
	cfg := timing.DefaultConfig()
	cfg.MaxInsts = 50_000
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := timing.RecordTrace(context.Background(), p, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}

// replayBench returns the closure for BenchmarkReplayVprP's shape: profile,
// select, and record once, then measure timing.Replay of the selection
// against the trace — the replay-side counterpart of preexecBench, so the
// baseline brackets the per-cell saving of the trace-replay fast path.
func replayBench() (func(b *testing.B), error) {
	w, err := workload.ByName("vpr.p")
	if err != nil {
		return nil, err
	}
	p := w.Build(1)
	forest, err := slice.ProfileWhole(p, slice.ProfileOptions{MaxInsts: 50_000})
	if err != nil {
		return nil, err
	}
	res := selector.SelectForest(forest, selector.Options{Params: advantage.DefaultParams(1.5), Merge: true})
	cfg := timing.DefaultConfig()
	cfg.MaxInsts = 50_000
	cfg.Mode = timing.ModeNormal
	tr, err := timing.RecordTrace(context.Background(), p, cfg)
	if err != nil {
		return nil, err
	}
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := timing.Replay(context.Background(), tr, res.PThreads, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}

// profileBench returns the closure for BenchmarkProfileVprR, the shape of
// internal/slice's BenchmarkProfile: one whole-run functional profile (trace,
// caches, backward slicing, slice trees) of 50k vpr.r instructions. Its
// allocs/op gate catches the slicer falling back to per-miss allocation.
func profileBench() (func(b *testing.B), error) {
	w, err := workload.ByName("vpr.r")
	if err != nil {
		return nil, err
	}
	p := w.Build(1)
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := slice.ProfileWhole(p, slice.ProfileOptions{MaxInsts: 50_000}); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}

// replaySweepBench returns the closure for the
// BenchmarkSweepReplayGrid/BenchmarkSweepFullSimGrid pair: the sweepBench
// selection grid run through an engine with the trace-replay fast path on
// (the default) or forced off, so the sweep-level win of replay is recorded
// in the baseline alongside the memoization pair.
func replaySweepBench(replay bool) (func(b *testing.B), error) {
	benches, err := preexec.SweepBenches([]string{"crafty", "gcc", "vpr.p"}, 1)
	if err != nil {
		return nil, err
	}
	points := make([]preexec.ConfigPoint, 0, 4)
	for _, name := range []string{"none", "merge", "opt", "opt+merge"} {
		cfg := preexec.DefaultConfig()
		cfg.Machine.WarmInsts, cfg.Machine.MeasureInsts = 10_000, 30_000
		cfg.Selection.Optimize = name == "opt" || name == "opt+merge"
		cfg.Selection.Merge = name == "merge" || name == "opt+merge"
		points = append(points, preexec.ConfigPoint{Name: name, Config: cfg})
	}
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := &preexec.Sweep{Engine: preexec.New(preexec.WithReplay(replay)), Workers: 2}
			if _, err := s.Run(context.Background(), benches, points); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}

// sweepBench returns the closure benchmarking one memoized (cached) or
// independent (uncached) selection sweep — a Figure-5-style four-point
// opt/merge grid over three contrasting benchmarks — so the stage cache's
// win is recorded in the baseline as a cached-vs-uncached pair. Selection
// knobs feed neither the base timing run nor the profile, so the cached
// sweep performs 3 of each where the uncached one performs 12.
func sweepBench(cached bool) (func(b *testing.B), error) {
	benches, err := preexec.SweepBenches([]string{"crafty", "gcc", "vpr.p"}, 1)
	if err != nil {
		return nil, err
	}
	points := make([]preexec.ConfigPoint, 0, 4)
	for _, name := range []string{"none", "merge", "opt", "opt+merge"} {
		cfg := preexec.DefaultConfig()
		cfg.Machine.WarmInsts, cfg.Machine.MeasureInsts = 10_000, 30_000
		cfg.Selection.Optimize = name == "opt" || name == "opt+merge"
		cfg.Selection.Merge = name == "merge" || name == "opt+merge"
		points = append(points, preexec.ConfigPoint{Name: name, Config: cfg})
	}
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := &preexec.Sweep{Workers: 2, NoCache: !cached}
			if _, err := s.Run(context.Background(), benches, points); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}

// synthBenches returns the workload-synthesis pair mirroring
// synth/bench_test.go: BenchmarkSynthGenerate compiles a mid-size clustered
// chase spec, BenchmarkAssemble re-assembles its disassembly.
func synthBenches() (gen, asm func(b *testing.B)) {
	spec := synth.Spec{Family: "chase", Seed: 1, FootprintWords: 1 << 16, Iters: 30_000, Clusters: 256}
	src := synth.Disassemble(synth.MustGenerate(spec))
	gen = func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := synth.Generate(spec); err != nil {
				b.Fatal(err)
			}
		}
	}
	asm = func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := synth.Assemble(src); err != nil {
				b.Fatal(err)
			}
		}
	}
	return gen, asm
}

// obsDisabledBench returns BenchmarkObsDisabledOverhead: the nil-receiver
// no-op path of every obs instrument plus a disabled StartSpan. The baseline
// pins it at zero allocs/op — the package's "disabled instrumentation is
// free" contract — so any accidental allocation on the disabled hot path
// fails the -check gate.
func obsDisabledBench() func(b *testing.B) {
	var (
		c  *obs.Counter
		g  *obs.Gauge
		h  *obs.Histogram
		tr *obs.Tracer
	)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Add(1)
			g.Set(int64(i))
			h.Observe(time.Duration(i))
			sp := tr.StartSpan("", "", "x")
			sp.SetAttr("k", "v")
			sp.End()
		}
	}
}

// benchName converts a workload name to its benchmark identifier
// (vpr.p -> BenchmarkSimVprP).
func benchName(w string) string {
	out := []rune{}
	up := true
	for _, r := range w {
		if r == '.' {
			up = true
			continue
		}
		if up {
			if r >= 'a' && r <= 'z' {
				r -= 'a' - 'A'
			}
			up = false
		}
		out = append(out, r)
	}
	return "BenchmarkSim" + string(out)
}

func measure() (map[string]Result, error) {
	out := make(map[string]Result)
	for _, name := range workload.Names() {
		fn, err := simBench(name)
		if err != nil {
			return nil, err
		}
		r := testing.Benchmark(fn)
		out[benchName(name)] = Result{NsOp: float64(r.NsPerOp()), BOp: r.AllocedBytesPerOp(), AllocsOp: r.AllocsPerOp()}
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %10d B/op %8d allocs/op\n",
			benchName(name), float64(r.NsPerOp()), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}
	fn, err := preexecBench()
	if err != nil {
		return nil, err
	}
	r := testing.Benchmark(fn)
	out["BenchmarkSimVprPPreexec"] = Result{NsOp: float64(r.NsPerOp()), BOp: r.AllocedBytesPerOp(), AllocsOp: r.AllocsPerOp()}
	fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %10d B/op %8d allocs/op\n",
		"BenchmarkSimVprPPreexec", float64(r.NsPerOp()), r.AllocedBytesPerOp(), r.AllocsPerOp())
	for _, sw := range []struct {
		name string
		mk   func() (func(b *testing.B), error)
	}{
		{"BenchmarkRecordTraceVprP", recordBench},
		{"BenchmarkReplayVprP", replayBench},
		{"BenchmarkProfileVprR", profileBench},
		{"BenchmarkSweepCached", func() (func(b *testing.B), error) { return sweepBench(true) }},
		{"BenchmarkSweepUncached", func() (func(b *testing.B), error) { return sweepBench(false) }},
		{"BenchmarkSweepReplayGrid", func() (func(b *testing.B), error) { return replaySweepBench(true) }},
		{"BenchmarkSweepFullSimGrid", func() (func(b *testing.B), error) { return replaySweepBench(false) }},
	} {
		fn, err := sw.mk()
		if err != nil {
			return nil, err
		}
		r := testing.Benchmark(fn)
		out[sw.name] = Result{NsOp: float64(r.NsPerOp()), BOp: r.AllocedBytesPerOp(), AllocsOp: r.AllocsPerOp()}
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %10d B/op %8d allocs/op\n",
			sw.name, float64(r.NsPerOp()), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}
	gen, asm := synthBenches()
	for _, sb := range []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"BenchmarkSynthGenerate", gen},
		{"BenchmarkAssemble", asm},
		{"BenchmarkObsDisabledOverhead", obsDisabledBench()},
	} {
		r := testing.Benchmark(sb.fn)
		out[sb.name] = Result{NsOp: float64(r.NsPerOp()), BOp: r.AllocedBytesPerOp(), AllocsOp: r.AllocsPerOp()}
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %10d B/op %8d allocs/op\n",
			sb.name, float64(r.NsPerOp()), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}
	return out, nil
}

func main() {
	var (
		out       = flag.String("o", "", "record a baseline snapshot to this file")
		check     = flag.String("check", "", "compare a fresh run against this baseline, failing on gross allocation regressions")
		tolerance = flag.Float64("tolerance", 0.30, "fractional allocs/op regression tolerated by -check")
		slack     = flag.Int64("slack", 32, "absolute allocs/op regression always tolerated (map growth noise)")
	)
	flag.Parse()
	if (*out == "") == (*check == "") {
		fmt.Fprintln(os.Stderr, "usage: benchsnap -o FILE | -check FILE [-tolerance 0.30]")
		os.Exit(2)
	}

	got, err := measure()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}

	if *out != "" {
		snap := Snapshot{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			RecordedAt: time.Now().UTC().Format(time.RFC3339),
			Note:       "ns_op is informational (machine-dependent); -check gates on allocs_op only",
			Benchmarks: got,
		}
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d benchmarks to %s\n", len(got), *out)
		return
	}

	buf, err := os.ReadFile(*check)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	var base Snapshot
	if err := json.Unmarshal(buf, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: %s: %v\n", *check, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		want := base.Benchmarks[name]
		have, ok := got[name]
		if !ok {
			fmt.Printf("MISSING %s: in baseline but not measured\n", name)
			failed = true
			continue
		}
		limit := int64(float64(want.AllocsOp)*(1+*tolerance)) + *slack
		status := "ok"
		if have.AllocsOp > limit {
			status = "ALLOC REGRESSION"
			failed = true
		}
		fmt.Printf("%-28s allocs/op %8d -> %8d (limit %d)  time %.1fms -> %.1fms [informational]  %s\n",
			name, want.AllocsOp, have.AllocsOp, limit, want.NsOp/1e6, have.NsOp/1e6, status)
	}
	// A benchmark measured but absent from the baseline has no allocation
	// gate at all — force the baseline to be regenerated alongside the new
	// benchmark rather than passing silently ungated.
	measured := make([]string, 0, len(got))
	for name := range got {
		measured = append(measured, name)
	}
	sort.Strings(measured)
	for _, name := range measured {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Printf("NEW %s: measured but not in baseline; regenerate with benchsnap -o\n", name)
			failed = true
		}
	}
	if failed {
		fmt.Println("benchsnap: gross regression against", *check)
		os.Exit(1)
	}
	fmt.Printf("benchsnap: %d benchmarks within tolerance of %s\n", len(names), *check)
}
