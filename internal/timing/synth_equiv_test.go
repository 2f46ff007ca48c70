package timing_test

// Reference differentials over the synthetic corpus. RunContext and Replay
// share one backend, so comparing them checks only the streamed front end
// against the recorded one; both are pinned here to the frozen reference
// core instead, over the curated synth.Zoo scenarios and — via a fuzz
// target — over arbitrary programs the .prx assembler accepts. This is an
// external test package because synth imports timing.

import (
	"context"
	"testing"

	"preexec"
	"preexec/internal/advantage"
	"preexec/internal/selector"
	"preexec/internal/slice"
	"preexec/internal/timing"
	"preexec/synth"
)

// selectFor profiles the sample window and selects p-threads with the
// default advantage model. A program the profiler rejects runs unassisted
// (nil p-threads); the differentials hold either way.
func selectFor(prog *preexec.Program, warm, measure int64) []*preexec.PThread {
	forest, err := slice.ProfileWhole(prog, slice.ProfileOptions{WarmInsts: warm, MaxInsts: measure})
	if err != nil {
		return nil
	}
	res := selector.SelectForest(forest, selector.Options{Params: advantage.DefaultParams(1.0), Merge: true})
	return res.PThreads
}

// checkAgainstReference runs prog in every mode through RunContext, through
// Replay of one trace recorded for cfg's windows, and through the reference
// core, and reports any divergence in errors or Stats.
func checkAgainstReference(t *testing.T, prog *preexec.Program, pts []*preexec.PThread, cfg timing.Config, src []byte) {
	t.Helper()
	tr, err := timing.RecordTrace(context.Background(), prog, cfg)
	if err != nil {
		t.Fatalf("RecordTrace: %v\n--- source:\n%s", err, src)
	}
	for _, mode := range timing.AllModes {
		cfg.Mode = mode
		want, werr := timing.RefRun(prog, pts, cfg)
		run, serr := timing.RunContext(context.Background(), prog, pts, cfg)
		rep, rerr := timing.Replay(context.Background(), tr, pts, cfg)
		if (werr != nil) != (serr != nil) || (werr != nil) != (rerr != nil) {
			t.Fatalf("%s: error mismatch: reference=%v run=%v replay=%v\n--- source:\n%s", mode, werr, serr, rerr, src)
		}
		if werr != nil {
			continue
		}
		if run != want {
			t.Errorf("%s: RunContext diverges from the reference core\n got: %+v\nwant: %+v\n--- source:\n%s", mode, run, want, src)
		}
		if rep != want {
			t.Errorf("%s: Replay diverges from the reference core\n got: %+v\nwant: %+v\n--- source:\n%s", mode, rep, want, src)
		}
	}
}

// TestZooMatchesReference pins RunContext and Replay to the reference core
// across the whole curated corpus in all five modes, selected p-threads in
// play.
func TestZooMatchesReference(t *testing.T) {
	const warm, measure = 4_000, 12_000
	for _, z := range synth.Zoo() {
		z := z
		t.Run(z.Name, func(t *testing.T) {
			t.Parallel()
			prog := synth.MustGenerate(z)
			cfg := timing.DefaultConfig()
			cfg.WarmInsts, cfg.MaxInsts = warm, measure
			checkAgainstReference(t, prog, selectFor(prog, warm, measure), cfg, nil)
		})
	}
}

// FuzzRunReplayReference is the three-way differential over arbitrary
// source: anything the assembler accepts must produce byte-for-byte equal
// Stats (or matching errors) from RunContext, Replay, and the reference
// core, in every mode. The seeds are one small generated program per
// pattern family plus a shrunken zoo scenario, so the mutator explores real
// instruction mixes rather than noise.
func FuzzRunReplayReference(f *testing.F) {
	for _, fam := range synth.FamilyNames() {
		p, err := synth.Generate(synth.Spec{Family: fam, Seed: 7, FootprintWords: 256, Iters: 8})
		if err != nil {
			f.Fatalf("seed spec %s: %v", fam, err)
		}
		f.Add(synth.Disassemble(p))
	}
	z := synth.Zoo()[0]
	z.FootprintWords, z.Iters = 1024, 64
	p, err := synth.Generate(z)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(synth.Disassemble(p))
	f.Fuzz(func(t *testing.T, src []byte) {
		p, err := synth.Assemble(src)
		if err != nil {
			return
		}
		const warm, measure = 1_000, 4_000
		cfg := timing.DefaultConfig()
		cfg.WarmInsts, cfg.MaxInsts = warm, measure
		checkAgainstReference(t, p, selectFor(p, warm, measure), cfg, src)
	})
}
