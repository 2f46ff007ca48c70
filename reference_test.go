package preexec_test

import (
	"testing"

	"preexec"
	"preexec/internal/timing"
	"preexec/synth"
)

// checkRunContext requires rep's timing runs to equal timing.RunContext of
// prog under the timing configuration the engine derives from cfg: the
// base run without p-threads, the pre-execution run with rep's selection.
func checkRunContext(t *testing.T, prog *preexec.Program, cfg preexec.Config, rep preexec.Report) {
	t.Helper()
	base, err := timing.RunContext(t.Context(), prog, nil, preexec.TimingFor(cfg, preexec.ModeBase))
	if err != nil {
		t.Fatal(err)
	}
	pre, err := timing.RunContext(t.Context(), prog, rep.PThreads, preexec.TimingFor(cfg, preexec.ModeNormal))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Base != base {
		t.Errorf("base run diverges from RunContext\n got: %+v\nwant: %+v", rep.Base, base)
	}
	if rep.Pre != pre {
		t.Errorf("pre-execution run diverges from RunContext\n got: %+v\nwant: %+v", rep.Pre, pre)
	}
}

// TestEngineMatchesStreamedReference pins the engine's timing runs to
// timing.RunContext, which records and replays each run on its own, on
// every golden case, and vpr.p's diagnostic-mode runs too: the end-to-end
// check that the engine's memoized traces, base runs and replays equal a
// standalone run under the engine's own configurations and selections.
func TestEngineMatchesStreamedReference(t *testing.T) {
	benches, err := preexec.SweepBenches(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]preexec.SweepBench{}
	for _, b := range benches {
		byName[b.Name] = b
	}
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			b := byName[c.bench]
			cfg := c.cfg(b)
			eng := preexec.New(preexec.WithConfig(cfg))
			rep, err := eng.Evaluate(t.Context(), b.Program)
			if err != nil {
				t.Fatal(err)
			}
			checkRunContext(t, b.Program, cfg, rep)
			if c.name != "vpr.p" {
				return
			}
			if len(rep.PThreads) == 0 {
				t.Fatal("vpr.p selected no p-threads")
			}
			for _, mode := range diagnosticModes {
				got, err := eng.Simulate(t.Context(), b.Program, rep.PThreads, mode)
				if err != nil {
					t.Fatal(err)
				}
				want, err := timing.RunContext(t.Context(), b.Program, rep.PThreads, preexec.TimingFor(cfg, mode))
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s: Simulate diverges from RunContext\n got: %+v\nwant: %+v", mode, got, want)
				}
			}
		})
	}
}

// TestEvaluateOverTraceCap evaluates a run whose window is longer than 4M
// instructions, where traces were once not recorded: a small synthetic
// program that halts, measured over 5M instructions. Its trace records up
// to HALT, on the same engine path a short run takes, and the report must
// equal RunContext's runs.
func TestEvaluateOverTraceCap(t *testing.T) {
	prog := synth.MustGenerate(synth.Spec{Family: "hash", Seed: 1, FootprintWords: 1 << 16, Iters: 4000, Depth: 1})
	cfg := preexec.DefaultConfig()
	cfg.Machine.WarmInsts, cfg.Machine.MeasureInsts = 2_000, 5<<20
	rep, err := preexec.New(preexec.WithConfig(cfg)).Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Base.Retired == 0 || rep.Base.Retired >= cfg.Machine.MeasureInsts {
		t.Fatalf("base run retired %d instructions, want a run that halts early", rep.Base.Retired)
	}
	if rep.Pre.Launches == 0 {
		t.Fatal("no p-thread launched; the pre-execution run is not exercised")
	}
	checkRunContext(t, prog, cfg, rep)
}
