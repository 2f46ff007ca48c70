package timing

// Equivalence tests for trace replay: Replay against a recorded base-run
// trace must produce Stats bit-for-bit identical to a full RunContext
// simulation — the same refsim discipline that pins the optimized core to
// the frozen reference core. The synth.Zoo corpus and the differential fuzz
// target live in the synth package (which can import this one; the reverse
// would cycle).

import (
	"context"
	"fmt"
	"testing"

	"preexec/internal/program"
	"preexec/internal/pthread"
	"preexec/internal/workload"
)

// recordFor records a trace for the given run sizing using the same Config
// family the runs use.
func recordFor(t *testing.T, prog *program.Program, cfg Config) *Trace {
	t.Helper()
	tr, err := RecordTrace(context.Background(), prog, cfg)
	if err != nil {
		t.Fatalf("RecordTrace: %v", err)
	}
	return tr
}

// TestReplayMatchesSimulation pins replay to full simulation on all ten
// workloads in all five modes, one recorded trace per workload serving every
// mode, with selected p-threads in play.
func TestReplayMatchesSimulation(t *testing.T) {
	const warm, measure = 10_000, 40_000
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog := w.Build(1)
			pts := selectFor(t, prog, warm, measure)
			cfg := DefaultConfig()
			cfg.WarmInsts, cfg.MaxInsts = warm, measure
			tr := recordFor(t, prog, cfg)
			for _, mode := range allModes {
				cfg.Mode = mode
				want, err := Run(prog, pts, cfg)
				if err != nil {
					t.Fatalf("%s/%s: simulation: %v", w.Name, mode, err)
				}
				got, err := Replay(context.Background(), tr, pts, cfg)
				if err != nil {
					t.Fatalf("%s/%s: replay: %v", w.Name, mode, err)
				}
				if got != want {
					t.Errorf("%s/%s: replay diverges from simulation\n got: %+v\nwant: %+v", w.Name, mode, got, want)
				}
			}
		})
	}
}

// TestNoLaunchIsBaseRun pins the invariant the engine's base-run shortcut
// rests on: a run in which no p-thread can launch is the base run. The
// backend reads the mode and the injection throttle only when injecting
// p-threads, so on all ten workloads, in every mode and with the throttle
// on or off, a replay with a nil or an empty selection — and a ModeBase
// replay with the workload's real selection — equals the ModeBase replay
// without p-threads, Stats for Stats.
func TestNoLaunchIsBaseRun(t *testing.T) {
	const warm, measure = 10_000, 30_000
	for _, w := range workload.All() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog := w.Build(1)
			pts := selectFor(t, prog, warm, measure)
			cfg := DefaultConfig()
			cfg.WarmInsts, cfg.MaxInsts = warm, measure
			tr := recordFor(t, prog, cfg)
			base, err := Replay(context.Background(), tr, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, pts []*pthread.PThread, cfg Config) {
				t.Helper()
				got, err := Replay(context.Background(), tr, pts, cfg)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if got != base {
					t.Errorf("%s diverges from the base run\n got: %+v\nwant: %+v", what, got, base)
				}
			}
			for _, throttleOff := range []bool{false, true} {
				cfg.NoRSThrottle = throttleOff
				for _, mode := range allModes {
					cfg.Mode = mode
					check(fmt.Sprintf("%s/%s/nothrottle=%t: nil selection", w.Name, mode, throttleOff), nil, cfg)
					check(fmt.Sprintf("%s/%s/nothrottle=%t: empty selection", w.Name, mode, throttleOff), []*pthread.PThread{}, cfg)
				}
				cfg.Mode = ModeBase
				check(fmt.Sprintf("%s/base/nothrottle=%t: %d selected p-threads", w.Name, throttleOff, len(pts)), pts, cfg)
			}
		})
	}
}

// TestReplayMatchesSimulationEdgeConfigs stresses the replay structures the
// same way the optimized-vs-reference edge suite stresses the core: tiny
// backends, starved store queues, context-count extremes, throttle off, and
// memory-latency extremes. The trace is re-recorded per geometry (the
// extent depends on ROB/Width).
func TestReplayMatchesSimulationEdgeConfigs(t *testing.T) {
	const warm, measure = 5_000, 25_000
	mutate := []struct {
		name string
		fn   func(*Config)
	}{
		{"tiny-backend", func(c *Config) { c.Width, c.ROB, c.RS, c.StoreQueue = 1, 4, 4, 2 }},
		{"narrow-wide-rob", func(c *Config) { c.Width, c.ROB = 2, 256 }},
		{"small-storeq", func(c *Config) { c.StoreQueue = 4 }},
		{"one-context", func(c *Config) { c.PtContexts = 1 }},
		{"many-contexts", func(c *Config) { c.PtContexts = 8 }},
		{"no-throttle", func(c *Config) { c.NoRSThrottle = true }},
		{"slow-memory", func(c *Config) { c.MemLat = 280 }},
		{"fast-memory", func(c *Config) { c.MemLat = 8 }},
		{"few-mshrs", func(c *Config) { c.MSHRs = 2 }},
		{"wide-burst", func(c *Config) { c.PtBurst = 16 }},
	}
	for _, wname := range []string{"mcf", "vpr.p", "vortex"} {
		w, err := workload.ByName(wname)
		if err != nil {
			t.Fatal(err)
		}
		prog := w.Build(1)
		pts := selectFor(t, prog, warm, measure)
		for _, m := range mutate {
			cfg := DefaultConfig()
			cfg.WarmInsts, cfg.MaxInsts = warm, measure
			m.fn(&cfg)
			tr := recordFor(t, prog, cfg)
			for _, mode := range []Mode{ModeBase, ModeNormal} {
				cfg.Mode = mode
				want, err := Run(prog, pts, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: simulation: %v", wname, m.name, mode, err)
				}
				got, err := Replay(context.Background(), tr, pts, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: replay: %v", wname, m.name, mode, err)
				}
				if got != want {
					t.Errorf("%s/%s/%s: replay diverges from simulation\n got: %+v\nwant: %+v", wname, m.name, mode, got, want)
				}
			}
		}
	}
}

// TestReplayTruncatedTrace pins the oracle-error parity: a program that runs
// off the end of its text truncates the trace, and replay of the truncated
// trace matches the simulator (whose fetch swallows the same error at the
// same instruction).
func TestReplayTruncatedTrace(t *testing.T) {
	b := program.NewBuilder("runs-off-end")
	b.Li(1, 0).Li(2, 500)
	b.Label("loop").
		Addi(1, 1, 1).
		Blt(1, 2, "loop")
	// Falls through past the last instruction: the oracle errors out.
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WarmInsts, cfg.MaxInsts = 0, 50_000
	tr := recordFor(t, p, cfg)
	if !tr.truncated {
		t.Fatalf("trace not truncated: %d records", tr.Records())
	}
	want, err := Run(p, nil, cfg)
	if err != nil {
		t.Fatalf("simulation: %v", err)
	}
	got, err := Replay(context.Background(), tr, nil, cfg)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got != want {
		t.Errorf("truncated-trace replay diverges\n got: %+v\nwant: %+v", got, want)
	}
}

// TestReplayRejectsShortTrace asserts the loud-failure contract: a trace
// recorded for a smaller run than the replay configuration demands is
// refused up front, and a version-mismatched trace is refused outright.
func TestReplayRejectsShortTrace(t *testing.T) {
	w, err := workload.ByName("vpr.p")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(1)
	cfg := DefaultConfig()
	cfg.WarmInsts, cfg.MaxInsts = 0, 10_000
	tr := recordFor(t, prog, cfg)

	big := cfg
	big.MaxInsts = 200_000
	if _, err := Replay(context.Background(), tr, nil, big); err == nil {
		t.Error("replay of a too-short trace did not fail")
	}

	stale := &Trace{prog: tr.prog, version: "rt0-stale", recs: tr.recs}
	if _, err := Replay(context.Background(), stale, nil, cfg); err == nil {
		t.Error("replay of a version-mismatched trace did not fail")
	}
}

// haltingStride builds a strided-load loop over a 512KB footprint — twice
// the L2 — that halts after iters iterations: a run that ends on HALT under
// any instruction budget, with L2 misses for the selector to attack.
func haltingStride(t *testing.T, iters int64) *program.Program {
	t.Helper()
	const words = 1 << 16
	b := program.NewBuilder("halting-stride")
	base := b.Alloc(words)
	for i := int64(0); i < words; i++ {
		b.SetWord(base+8*i, i%97+1)
	}
	b.Li(1, 0).Li(2, iters).Li(3, base).Li(7, 0)
	b.Label("loop").
		Bge(1, 2, "exit").
		Slli(5, 1, 3). // one new line per iteration
		Andi(5, 5, words-1).
		Slli(5, 5, 3).
		Add(5, 5, 3).
		Ld(6, 5, 0).
		Add(7, 7, 6).
		Addi(1, 1, 1).
		J("loop")
	b.Label("exit").Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReplayUntraceableRun pins the over-cap path: a run longer than the
// recording cap — here the unbounded MaxInsts default — records a streamed
// trace with no records, and Replay of it equals RunContext for the base
// run and for a pre-execution run with a selection.
func TestReplayUntraceableRun(t *testing.T) {
	prog := haltingStride(t, 4000)
	cfg := DefaultConfig() // MaxInsts stays the unbounded 1<<62 default
	tr := recordFor(t, prog, cfg)
	if n := tr.Records(); n != 0 {
		t.Fatalf("trace of an unbounded run holds %d records, want 0", n)
	}
	pts := selectFor(t, prog, 0, cfg.MaxInsts)
	if len(pts) == 0 {
		t.Fatal("selector chose no p-threads for the strided loop")
	}
	for _, c := range []struct {
		mode Mode
		pts  []*pthread.PThread
	}{{ModeBase, nil}, {ModeNormal, pts}} {
		cfg.Mode = c.mode
		want, err := RunContext(context.Background(), prog, c.pts, cfg)
		if err != nil {
			t.Fatalf("%s: simulation: %v", c.mode, err)
		}
		got, err := Replay(context.Background(), tr, c.pts, cfg)
		if err != nil {
			t.Fatalf("%s: replay: %v", c.mode, err)
		}
		if got != want {
			t.Errorf("%s: streamed-trace replay diverges from simulation\n got: %+v\nwant: %+v", c.mode, got, want)
		}
		if c.mode == ModeNormal && got.Launches == 0 {
			t.Errorf("%s: no p-thread launched", c.mode)
		}
	}
}

// TestReplayCancellation pins the PR 5 guarantee on the replay path: both
// recording and replay poll the context on the same bounded cadence as
// RunContext (every 1<<12 loop iterations), so a cancelled context stops
// them within a bounded number of events rather than at stage boundaries.
func TestReplayCancellation(t *testing.T) {
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(1)
	cfg := DefaultConfig()
	cfg.WarmInsts, cfg.MaxInsts = 10_000, 40_000
	tr := recordFor(t, prog, cfg)
	pts := selectFor(t, prog, 10_000, 40_000)
	cfg.Mode = ModeNormal

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// A pre-cancelled context must be noticed at the first poll — within
	// ctxCheckMask+1 loop iterations, i.e. before any meaningful work.
	if _, err := Replay(cancelled, tr, pts, cfg); err != context.Canceled {
		t.Errorf("cancelled replay returned %v, want context.Canceled", err)
	}
	if _, err := RecordTrace(cancelled, prog, cfg); err != context.Canceled {
		t.Errorf("cancelled recording returned %v, want context.Canceled", err)
	}
}

// TestReplayDeterministic asserts repeated replays of one trace are
// bit-for-bit identical (the slot arena and free list must not leak
// allocation order into results).
func TestReplayDeterministic(t *testing.T) {
	w, err := workload.ByName("vpr.p")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(1)
	pts := selectFor(t, prog, 10_000, 40_000)
	cfg := DefaultConfig()
	cfg.WarmInsts, cfg.MaxInsts = 10_000, 40_000
	cfg.Mode = ModeNormal
	tr := recordFor(t, prog, cfg)
	a, err := Replay(context.Background(), tr, pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(context.Background(), tr, pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("repeated replays diverge\n first: %+v\nsecond: %+v", a, b)
	}
}
