// Package core_test holds the seed's end-to-end pipeline tests. The
// orchestration they once exercised now lives in the root package's Engine,
// and this directory holds no code: the tests stay here, written against
// the public API, so their test IDs (preexec/internal/core:TestX) are
// preserved.
package core_test

import (
	"testing"

	"preexec"
)

// evaluate runs the default pipeline on bench's train input with the given
// windows, after edit adjusts the configuration.
func evaluate(t *testing.T, bench string, warm, measure int64, edit func(*preexec.Config)) (*preexec.Program, preexec.Config, preexec.Report) {
	t.Helper()
	w, err := preexec.WorkloadByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(1)
	cfg := preexec.DefaultConfig()
	cfg.Machine.WarmInsts, cfg.Machine.MeasureInsts = warm, measure
	if edit != nil {
		edit(&cfg)
	}
	rep, err := preexec.New(preexec.WithConfig(cfg)).Evaluate(t.Context(), p)
	if err != nil {
		t.Fatal(err)
	}
	return p, cfg, rep
}

func TestDefaultConfig(t *testing.T) {
	c := preexec.DefaultConfig()
	if c.Selection.Scope != 1024 || c.Selection.MaxLen != 32 || !c.Selection.Optimize || !c.Selection.Merge {
		t.Errorf("DefaultConfig = %+v", c)
	}
	if c.Machine.Width != 8 || c.Machine.MemLat != 70 {
		t.Errorf("machine defaults wrong: %+v", c)
	}
}

func TestEvaluateVprP(t *testing.T) {
	_, _, rep := evaluate(t, "vpr.p", 20_000, 80_000, nil)
	if rep.Base.IPC <= 0 || rep.Pre.IPC <= 0 {
		t.Fatal("missing IPCs")
	}
	if rep.BaseMisses == 0 {
		t.Fatal("no base misses profiled")
	}
	if rep.CoveragePct() < 30 {
		t.Errorf("vpr.p coverage = %.1f%%, want substantial", rep.CoveragePct())
	}
	if rep.SpeedupPct() <= 0 {
		t.Errorf("vpr.p speedup = %.1f%%, want positive", rep.SpeedupPct())
	}
	if rep.PredIPC <= rep.Base.IPC {
		t.Errorf("prediction should forecast improvement: pred %.2f base %.2f", rep.PredIPC, rep.Base.IPC)
	}
}

func TestSelectOnDifferentInput(t *testing.T) {
	w, err := preexec.WorkloadByName("vpr.p")
	if err != nil {
		t.Fatal(err)
	}
	test := w.BuildTest(1)
	_, _, rep := evaluate(t, "vpr.p", 20_000, 60_000, func(c *preexec.Config) {
		c.Selection.ProfileOn = test
		c.Selection.ProfileInsts = 40_000
	})
	// vpr.p's test input fits the L2 (paper Fig. 7): nothing selected.
	if len(rep.PThreads) != 0 {
		t.Errorf("test-input selection found %d p-threads, want 0", len(rep.PThreads))
	}
	if rep.BaseMisses == 0 {
		t.Error("coverage denominator must come from the measured machine")
	}
}

func TestRunModeOverhead(t *testing.T) {
	p, cfg, rep := evaluate(t, "vpr.r", 20_000, 60_000, nil)
	if len(rep.PThreads) == 0 {
		t.Skip("nothing selected")
	}
	seq, err := preexec.New(preexec.WithConfig(cfg)).Simulate(t.Context(), p, rep.PThreads, preexec.ModeOverheadSequence)
	if err != nil {
		t.Fatal(err)
	}
	if seq.MissesCovered != 0 {
		t.Error("sequence mode must not cover misses")
	}
	if seq.IPC > rep.Base.IPC*1.02 {
		t.Errorf("overhead-only IPC %.3f should not exceed base %.3f", seq.IPC, rep.Base.IPC)
	}
}

func TestRegionGranularity(t *testing.T) {
	_, _, rep := evaluate(t, "vpr.p", 20_000, 80_000, func(c *preexec.Config) {
		c.Selection.RegionInsts = 20_000
	})
	if len(rep.PThreads) == 0 {
		t.Fatal("regioned selection chose nothing")
	}
	gated := 0
	for _, pt := range rep.PThreads {
		if pt.RegionEnd != 0 {
			gated++
		}
	}
	if gated == 0 {
		t.Error("expected region-gated p-threads")
	}
	if rep.Pre.Launches == 0 {
		t.Error("regioned p-threads never launched")
	}
}
