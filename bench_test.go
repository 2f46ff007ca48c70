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

// An op is one micro-benchmark: it sets up and returns the one call it
// measures — a bare timing run, a trace recording or replay, a selection
// sweep — so one stage is observable in isolation. Setup and call failures
// fail tb. Each op is defined once: its Benchmark* function times it, and
// TestAllocCeilings bounds its heap allocations per call, the
// machine-independent regression signal the zero-allocation simulator core
// is defended by.
type op func(tb testing.TB) func()

// benchOp times o's call.
func benchOp(b *testing.B, o op) {
	call := o(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

// simOp is one bare base-mode timing.Run of 50k instructions of the named
// workload: the simulator hot loop without profiling or selection.
func simOp(name string) op {
	return func(tb testing.TB) func() {
		p := buildBench(tb, name)
		cfg := timing.DefaultConfig()
		cfg.MaxInsts = 50_000
		return func() {
			if _, err := timing.Run(p, nil, cfg); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

func BenchmarkSimBzip2(b *testing.B)  { benchOp(b, simOp("bzip2")) }
func BenchmarkSimCrafty(b *testing.B) { benchOp(b, simOp("crafty")) }
func BenchmarkSimGap(b *testing.B)    { benchOp(b, simOp("gap")) }
func BenchmarkSimGcc(b *testing.B)    { benchOp(b, simOp("gcc")) }
func BenchmarkSimMcf(b *testing.B)    { benchOp(b, simOp("mcf")) }
func BenchmarkSimParser(b *testing.B) { benchOp(b, simOp("parser")) }
func BenchmarkSimTwolf(b *testing.B)  { benchOp(b, simOp("twolf")) }
func BenchmarkSimVortex(b *testing.B) { benchOp(b, simOp("vortex")) }
func BenchmarkSimVprP(b *testing.B)   { benchOp(b, simOp("vpr.p")) }
func BenchmarkSimVprR(b *testing.B)   { benchOp(b, simOp("vpr.r")) }

// vprPSelection builds vpr.p, selects p-threads from a profile of its first
// 50k instructions, and returns them with the pre-execution timing
// configuration of a 50k-instruction run.
func vprPSelection(tb testing.TB) (*preexec.Program, []*preexec.PThread, timing.Config) {
	tb.Helper()
	p := buildBench(tb, "vpr.p")
	forest, err := slice.ProfileWhole(p, slice.ProfileOptions{MaxInsts: 50_000})
	if err != nil {
		tb.Fatal(err)
	}
	res := selector.SelectForest(forest, selector.Options{Params: advantage.DefaultParams(1.5), Merge: true})
	cfg := timing.DefaultConfig()
	cfg.MaxInsts = 50_000
	cfg.Mode = timing.ModeNormal
	return p, res.PThreads, cfg
}

// preexecOp streams vpr.p with its selected p-threads: the pre-execution
// paths of the hot loop (launch, burst injection, p-thread memory traffic)
// that the base-mode simOps never reach.
func preexecOp(tb testing.TB) func() {
	p, pts, cfg := vprPSelection(tb)
	return func() {
		if _, err := timing.Run(p, pts, cfg); err != nil {
			tb.Fatal(err)
		}
	}
}

// recordOp records vpr.p's base-run event trace — the one-time cost a sweep
// pays per base group before every selection cell replays for almost free.
func recordOp(tb testing.TB) func() {
	p := buildBench(tb, "vpr.p")
	cfg := timing.DefaultConfig()
	cfg.MaxInsts = 50_000
	return func() {
		if _, err := timing.RecordTrace(context.Background(), p, cfg); err != nil {
			tb.Fatal(err)
		}
	}
}

// replayOp replays the selection preexecOp streams against a recorded trace:
// the two bracket the per-cell saving of replaying over streaming the front
// end (results bit-identical).
func replayOp(tb testing.TB) func() {
	p, pts, cfg := vprPSelection(tb)
	tr, err := timing.RecordTrace(context.Background(), p, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if _, err := timing.Replay(context.Background(), tr, pts, cfg); err != nil {
			tb.Fatal(err)
		}
	}
}

// replayGrid is the selection-only grid sweepOp runs: a Figure-5-style
// optimization x merging grid where every cell shares one base-run identity
// per benchmark, so each benchmark's trace is recorded once and replayed for
// every selection.
func replayGrid(tb testing.TB) ([]preexec.SweepBench, []preexec.ConfigPoint) {
	tb.Helper()
	benches, err := preexec.SweepBenches([]string{"crafty", "gcc", "vpr.p"}, 1)
	if err != nil {
		tb.Fatal(err)
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

// sweepOp runs the replay grid on two workers. Memoized (cached), it records
// one trace, replays one base run and profiles once per benchmark, then
// replays once per distinct p-thread set; crafty selects nothing, so its
// cells reuse the base run. Uncached, every cell runs each stage itself: the
// pair records the stage cache's win.
func sweepOp(cached bool) op {
	return func(tb testing.TB) func() {
		benches, points := replayGrid(tb)
		return func() {
			s := &preexec.Sweep{Workers: 2, NoCache: !cached}
			if _, err := s.Run(context.Background(), benches, points); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

func BenchmarkSimVprPPreexec(b *testing.B)  { benchOp(b, preexecOp) }
func BenchmarkRecordTraceVprP(b *testing.B) { benchOp(b, recordOp) }
func BenchmarkReplayVprP(b *testing.B)      { benchOp(b, replayOp) }
func BenchmarkSweepReplayGrid(b *testing.B) { benchOp(b, sweepOp(true)) }
func BenchmarkSweepUncached(b *testing.B)   { benchOp(b, sweepOp(false)) }

// allocCeilings bounds each op's heap allocations per call. A ceiling is the
// count measured when it was set, plus 30% and 32 allocations of headroom
// for map growth and scheduling; an op whose count falls well below its
// ceiling should have the ceiling lowered with it.
var allocCeilings = []struct {
	name    string
	op      op
	ceiling float64
}{
	{"SimBzip2", simOp("bzip2"), 591},
	{"SimCrafty", simOp("crafty"), 102},
	{"SimGap", simOp("gap"), 276},
	{"SimGcc", simOp("gcc"), 591},
	{"SimMcf", simOp("mcf"), 424},
	{"SimParser", simOp("parser"), 424},
	{"SimTwolf", simOp("twolf"), 255},
	{"SimVortex", simOp("vortex"), 425},
	{"SimVprP", simOp("vpr.p"), 255},
	{"SimVprR", simOp("vpr.r"), 327},
	{"SimVprPPreexec", preexecOp, 318},
	{"RecordTraceVprP", recordOp, 224},
	{"ReplayVprP", replayOp, 340},
	{"SweepReplayGrid", sweepOp(true), 68490},
	{"SweepUncached", sweepOp(false), 73814},
}

// TestAllocCeilings fails when an op allocates more per call than its
// ceiling. testing.AllocsPerRun warms the op with one call and counts the
// next.
func TestAllocCeilings(t *testing.T) {
	for _, c := range allocCeilings {
		t.Run(c.name, func(t *testing.T) {
			call := c.op(t)
			got := testing.AllocsPerRun(1, call)
			if got > c.ceiling {
				t.Errorf("%.0f allocs/op, ceiling %.0f", got, c.ceiling)
			}
			t.Logf("%.0f allocs/op, ceiling %.0f", got, c.ceiling)
		})
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
