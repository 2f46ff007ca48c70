package timing

// Equivalence, determinism, and allocation tests for the optimized core.
// The load-bearing invariant of this package is that performance work never
// changes results: the optimized core must produce Stats bit-for-bit
// identical to the frozen reference core (refsim_test.go) on every workload
// in every mode, and identical to itself across repeated runs.

import (
	"context"
	"testing"

	"preexec/internal/advantage"
	"preexec/internal/program"
	"preexec/internal/pthread"
	"preexec/internal/selector"
	"preexec/internal/slice"
	"preexec/internal/workload"
)

var allModes = []Mode{ModeBase, ModeNormal, ModeOverheadExecute, ModeOverheadSequence, ModeLatencyOnly}

// selectFor profiles the workload and selects p-threads the way the
// end-to-end pipeline does, so the equivalence runs exercise realistic
// launch/injection/coverage traffic rather than hand-built toys.
func selectFor(t *testing.T, prog *program.Program, warm, measure int64) []*pthread.PThread {
	t.Helper()
	forest, err := slice.ProfileWhole(prog, slice.ProfileOptions{WarmInsts: warm, MaxInsts: measure})
	if err != nil {
		t.Fatal(err)
	}
	res := selector.SelectForest(forest, selector.Options{Params: advantage.DefaultParams(1.0), Merge: true})
	return res.PThreads
}

// TestOptimizedCoreMatchesReference pins the optimized core to the frozen
// pre-optimization core: identical Stats on all ten workloads in all five
// modes, with selected p-threads in play.
func TestOptimizedCoreMatchesReference(t *testing.T) {
	const warm, measure = 10_000, 40_000
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog := w.Build(1)
			pts := selectFor(t, prog, warm, measure)
			for _, mode := range allModes {
				cfg := DefaultConfig()
				cfg.WarmInsts, cfg.MaxInsts = warm, measure
				cfg.Mode = mode
				got, err := Run(prog, pts, cfg)
				if err != nil {
					t.Fatalf("%s/%s: optimized core: %v", w.Name, mode, err)
				}
				want, err := refRun(prog, pts, cfg)
				if err != nil {
					t.Fatalf("%s/%s: reference core: %v", w.Name, mode, err)
				}
				if got != want {
					t.Errorf("%s/%s: stats diverge from reference core\n got: %+v\nwant: %+v", w.Name, mode, got, want)
				}
			}
		})
	}
}

// TestOptimizedCoreMatchesReferenceEdgeConfigs walks the configuration
// corners where the ring buffers, forwarding chains, and idle skip are under
// the most stress: tiny backends, starved store queues, single p-thread
// contexts, disabled throttles, and extreme memory latencies.
func TestOptimizedCoreMatchesReferenceEdgeConfigs(t *testing.T) {
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
			for _, mode := range []Mode{ModeBase, ModeNormal} {
				cfg := DefaultConfig()
				cfg.WarmInsts, cfg.MaxInsts = warm, measure
				cfg.Mode = mode
				m.fn(&cfg)
				got, err := Run(prog, pts, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: optimized core: %v", wname, m.name, mode, err)
				}
				want, err := refRun(prog, pts, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: reference core: %v", wname, m.name, mode, err)
				}
				if got != want {
					t.Errorf("%s/%s/%s: stats diverge from reference core\n got: %+v\nwant: %+v", wname, m.name, mode, got, want)
				}
			}
		}
	}
}

// TestRunDeterministic asserts two independent runs of the same simulation
// are bit-for-bit identical (the p-thread arena and the front end's maps
// must not leak iteration order or address-dependent behaviour into
// results).
func TestRunDeterministic(t *testing.T) {
	for _, wname := range []string{"mcf", "vpr.p"} {
		w, err := workload.ByName(wname)
		if err != nil {
			t.Fatal(err)
		}
		prog := w.Build(1)
		pts := selectFor(t, prog, 10_000, 40_000)
		cfg := DefaultConfig()
		cfg.WarmInsts, cfg.MaxInsts = 10_000, 40_000
		cfg.Mode = ModeNormal
		a, err := Run(prog, pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(prog, pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: repeated runs diverge\n first: %+v\nsecond: %+v", wname, a, b)
		}
	}
}

// TestSteadyStateAllocs pins the core's zero-steady-state-allocation
// property: growing the measured window by 100k instructions must not grow
// the per-run allocation count of a Run (a recording, then its replay) or
// of a Replay by more than a little (everything per-instruction lives in
// the slot and record rings, the p-thread arena, and reused scratch; the
// recording adds one 64 KB chunk per ~20k instructions, and the remaining
// allocations are setup — memory image, caches, predictor — and are
// window-independent).
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	w, err := workload.ByName("vpr.p")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(1)
	pts := selectFor(t, prog, 0, 30_000)
	config := func(maxInsts int64) Config {
		cfg := DefaultConfig()
		cfg.MaxInsts = maxInsts
		cfg.Mode = ModeNormal
		return cfg
	}
	runAllocs := func(maxInsts int64) float64 {
		cfg := config(maxInsts)
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(prog, pts, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	replayAllocs := func(maxInsts int64) float64 {
		cfg := config(maxInsts)
		tr := recordFor(t, prog, cfg)
		return testing.AllocsPerRun(3, func() {
			if _, err := Replay(context.Background(), tr, pts, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	// 100k extra instructions under the original per-uop core cost >100k
	// allocations; both must stay flat. A little slack covers
	// lazily mapped memory pages and map growth in the larger footprint.
	for _, c := range []struct {
		name   string
		allocs func(int64) float64
	}{{"Run", runAllocs}, {"Replay", replayAllocs}} {
		small := c.allocs(20_000)
		large := c.allocs(120_000)
		if grown := large - small; grown > 500 {
			t.Errorf("%s allocations scale with instruction count: %0.f @20k insts vs %0.f @120k insts (+%0.f)", c.name, small, large, grown)
		}
	}
}

// TestLivelockGuardUnboundedRun is the regression test for the guard
// overflow: with the unbounded MaxInsts default, guard arithmetic used to
// wrap and falsely report "no forward progress" after ~1M cycles. A long
// run-to-HALT program must complete.
func TestLivelockGuardUnboundedRun(t *testing.T) {
	const iters = 3_000_000
	b := program.NewBuilder("long-loop")
	b.Li(1, 0).Li(2, iters)
	b.Label("loop").
		Addi(1, 1, 1).
		Blt(1, 2, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig() // MaxInsts stays the unbounded 1<<62 default
	st, err := Run(p, nil, cfg)
	if err != nil {
		t.Fatalf("unbounded run falsely hit the livelock guard: %v", err)
	}
	if want := int64(2*iters + 3); st.Retired != want {
		t.Errorf("retired = %d, want %d", st.Retired, want)
	}
	if st.Cycles <= 1_000_000 {
		t.Errorf("test did not cross the old overflowed guard (~1M cycles): %d cycles", st.Cycles)
	}
}

// TestLivelockGuardClamp pins the guard arithmetic itself.
func TestLivelockGuardClamp(t *testing.T) {
	if g := livelockGuard(1 << 62); g != unboundedGuard {
		t.Errorf("livelockGuard(1<<62) = %d, want clamp to %d", g, unboundedGuard)
	}
	if g := livelockGuard(1<<62 + 30_000); g != unboundedGuard {
		t.Errorf("livelockGuard(unbounded+warm) = %d, want clamp to %d", g, unboundedGuard)
	}
	if g := livelockGuard(0); g <= 0 {
		t.Errorf("livelockGuard(0) = %d, want positive", g)
	}
	if g := livelockGuard(100_000); g != 100_000*64+1_000_000 {
		t.Errorf("livelockGuard(100k) = %d, want %d", g, 100_000*64+1_000_000)
	}
}
