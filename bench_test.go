// Package preexec_test holds the benchmark harness: one testing.B target
// per table and figure in the paper's evaluation (§4), plus the serial
// versus worker-pool suite comparison that tracks the concurrent runner's
// speedup. Each benchmark iteration regenerates the complete experiment
// across the ten-benchmark suite; run a single one with e.g.
//
//	go test -bench=BenchmarkTable2 -benchmem
//
// and print the actual rows with cmd/texp. The windows here are slightly
// smaller than texp's defaults so a full -bench=. sweep stays in the
// minutes range; cmd/texp runs them at full size.
package preexec_test

import (
	"context"
	"testing"

	"preexec"
	"preexec/internal/advantage"
	"preexec/internal/experiments"
	"preexec/internal/selector"
	"preexec/internal/slice"
	"preexec/internal/timing"
	"preexec/internal/workload"
)

func benchOpts() experiments.Options {
	return experiments.Options{Warm: 20_000, Measure: 60_000}
}

// BenchmarkTable1 regenerates the benchmark characterization (paper Table 1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates the primary results and model validation
// (paper Table 2): base, pre-execution, the three diagnostic modes, and the
// framework's predictions, per benchmark.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates the §3 worked example's end-to-end
// counterpart: the pharmacy program evaluated under the default framework
// (Figures 1-3 are exercised analytically in the unit tests and
// examples/pharmacy).
func BenchmarkFigure2(b *testing.B) {
	w, err := preexec.WorkloadByName("vpr.r")
	if err != nil {
		b.Fatal(err)
	}
	prog := w.Build(1)
	machine := preexec.DefaultMachine()
	machine.WarmInsts, machine.MeasureInsts = 20_000, 60_000
	eng := preexec.New(preexec.WithMachine(machine))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Evaluate(context.Background(), prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates the slicing-scope x p-thread-length sweep.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates the optimization & merging comparison.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 regenerates the selection-granularity comparison.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7 regenerates the selection input data-set comparison
// (perfect / dynamic / static scenarios).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8 regenerates the memory-latency cross-validation.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWidth regenerates the processor-width cross-validation (§4.5).
func BenchmarkWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Width(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSim measures one bare timing.Run (50k measured instructions, base
// mode) so the simulator hot loop is observable in isolation from profiling
// and selection. These are the benchmarks cmd/benchsnap snapshots into
// BENCH_baseline.json and that CI guards against allocation regressions.
func benchSim(b *testing.B, name string) {
	b.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build(1)
	cfg := timing.DefaultConfig()
	cfg.MaxInsts = 50_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timing.Run(p, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimBzip2(b *testing.B)  { benchSim(b, "bzip2") }
func BenchmarkSimCrafty(b *testing.B) { benchSim(b, "crafty") }
func BenchmarkSimGap(b *testing.B)    { benchSim(b, "gap") }
func BenchmarkSimGcc(b *testing.B)    { benchSim(b, "gcc") }
func BenchmarkSimMcf(b *testing.B)    { benchSim(b, "mcf") }
func BenchmarkSimParser(b *testing.B) { benchSim(b, "parser") }
func BenchmarkSimTwolf(b *testing.B)  { benchSim(b, "twolf") }
func BenchmarkSimVortex(b *testing.B) { benchSim(b, "vortex") }
func BenchmarkSimVprP(b *testing.B)   { benchSim(b, "vpr.p") }
func BenchmarkSimVprR(b *testing.B)   { benchSim(b, "vpr.r") }

// BenchmarkSimVprPPreexec exercises the pre-execution paths of the hot loop
// (launch, burst injection, p-thread memory traffic) that the base-mode
// BenchmarkSim* benchmarks never reach.
func BenchmarkSimVprPPreexec(b *testing.B) {
	w, err := workload.ByName("vpr.p")
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build(1)
	forest, err := slice.ProfileWhole(p, slice.ProfileOptions{MaxInsts: 50_000})
	if err != nil {
		b.Fatal(err)
	}
	res := selector.SelectForest(forest, selector.Options{Params: advantage.DefaultParams(1.5), Merge: true})
	cfg := timing.DefaultConfig()
	cfg.MaxInsts = 50_000
	cfg.Mode = timing.ModeNormal
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timing.Run(p, res.PThreads, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordTraceVprP measures recording the base-run event trace that
// the replay benchmarks consume — the one-time cost a sweep pays per base
// group before every selection cell replays for almost free.
func BenchmarkRecordTraceVprP(b *testing.B) {
	w, err := workload.ByName("vpr.p")
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build(1)
	cfg := timing.DefaultConfig()
	cfg.MaxInsts = 50_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timing.RecordTrace(context.Background(), p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayVprP replays the same selection BenchmarkSimVprPPreexec
// simulates in full, against a recorded trace — the two benchmarks bracket
// the per-cell saving of replaying over streaming the front end (results
// bit-identical).
func BenchmarkReplayVprP(b *testing.B) {
	w, err := workload.ByName("vpr.p")
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build(1)
	forest, err := slice.ProfileWhole(p, slice.ProfileOptions{MaxInsts: 50_000})
	if err != nil {
		b.Fatal(err)
	}
	res := selector.SelectForest(forest, selector.Options{Params: advantage.DefaultParams(1.5), Merge: true})
	cfg := timing.DefaultConfig()
	cfg.MaxInsts = 50_000
	cfg.Mode = timing.ModeNormal
	tr, err := timing.RecordTrace(context.Background(), p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timing.Replay(context.Background(), tr, res.PThreads, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// replayGrid is the selection-only sweep BenchmarkSweepReplayGrid runs: a
// Figure-5-style optimization x merging grid where every cell shares one
// base-run identity per benchmark, so each benchmark's trace is recorded
// once and replayed for every selection.
func replayGrid(b *testing.B) ([]preexec.SweepBench, []preexec.ConfigPoint) {
	b.Helper()
	benches, err := preexec.SweepBenches([]string{"crafty", "gcc", "vpr.p"}, 1)
	if err != nil {
		b.Fatal(err)
	}
	var points []preexec.ConfigPoint
	for _, name := range []string{"none", "merge", "opt", "opt+merge"} {
		cfg := preexec.DefaultConfig()
		cfg.Machine.WarmInsts, cfg.Machine.MeasureInsts = 10_000, 30_000
		cfg.Selection.Optimize = name == "opt" || name == "opt+merge"
		cfg.Selection.Merge = name == "merge" || name == "opt+merge"
		points = append(points, preexec.ConfigPoint{Name: name, Config: cfg})
	}
	return benches, points
}

// BenchmarkSweepReplayGrid runs the selection-only grid through a memoized
// sweep: one trace recording, one base replay and one profile per
// benchmark, then one replay per distinct p-thread set. crafty selects
// nothing, so its cells reuse the base run.
func BenchmarkSweepReplayGrid(b *testing.B) {
	benches, points := replayGrid(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &preexec.Sweep{Workers: 2}
		if _, err := s.Run(context.Background(), benches, points); err != nil {
			b.Fatal(err)
		}
	}
}

// suitePrograms builds the full ten-benchmark suite with small windows for
// the suite-runner benchmarks.
func suitePrograms(b *testing.B) (*preexec.Engine, []*preexec.Program) {
	b.Helper()
	machine := preexec.DefaultMachine()
	machine.WarmInsts, machine.MeasureInsts = 20_000, 60_000
	eng := preexec.New(preexec.WithMachine(machine))
	var progs []*preexec.Program
	for _, w := range preexec.Workloads() {
		progs = append(progs, w.Build(1))
	}
	return eng, progs
}

// BenchmarkSuiteSerial evaluates the ten-benchmark suite one workload at a
// time (Workers: 1) — the baseline for the worker-pool comparison.
func BenchmarkSuiteSerial(b *testing.B) {
	eng, progs := suitePrograms(b)
	s := &preexec.Suite{Engine: eng, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Evaluate(context.Background(), progs...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteParallel evaluates the same suite across the default
// worker pool (all cores). The wall-clock ratio to BenchmarkSuiteSerial is
// the concurrent runner's speedup and should approach min(cores, 10).
func BenchmarkSuiteParallel(b *testing.B) {
	eng, progs := suitePrograms(b)
	s := &preexec.Suite{Engine: eng}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Evaluate(context.Background(), progs...); err != nil {
			b.Fatal(err)
		}
	}
}
