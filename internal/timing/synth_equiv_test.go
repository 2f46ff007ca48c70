package timing_test

// Reference differentials over the synthetic corpus. RunContext is a
// recording and its replay, so RunContext and Replay share one record path
// and one backend; both are pinned here to the frozen reference core, over the curated synth.Zoo scenarios and — via a fuzz
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

// record records prog's trace for cfg, failing the test on error.
func record(t *testing.T, prog *preexec.Program, cfg timing.Config, src []byte) *timing.Trace {
	t.Helper()
	tr, err := timing.RecordTrace(context.Background(), prog, cfg)
	if err != nil {
		t.Fatalf("RecordTrace: %v\n--- source:\n%s", err, src)
	}
	return tr
}

// checkAgainstReference runs prog in every mode through RunContext, through
// Replay of the trace tr, and through the reference core, all under cfg,
// and reports any divergence in errors or Stats.
func checkAgainstReference(t *testing.T, prog *preexec.Program, pts []*preexec.PThread, tr *timing.Trace, cfg timing.Config, src []byte) {
	t.Helper()
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
			checkAgainstReference(t, prog, selectFor(prog, warm, measure), record(t, prog, cfg, nil), cfg, nil)
		})
	}
}

// fuzzWidths are the widths a fuzzed second machine draws from: every one
// shares the default machine's TraceSpan.
var fuzzWidths = []int{1, 2, 4, 8, 16}

// FuzzRunReplayReference is the three-way differential over arbitrary
// source: anything the assembler accepts must produce byte-for-byte equal
// Stats (or matching errors) from RunContext, Replay, and the reference
// core, in every mode. The trace is recorded once on the default machine
// and also replayed under a second machine drawn from width and memLat,
// with the same TraceSpan, where it must match that machine's reference
// run. The seeds are one small generated program per pattern family plus a
// shrunken zoo scenario, so the mutator explores real instruction mixes
// rather than noise.
func FuzzRunReplayReference(f *testing.F) {
	var seeds [][]byte
	for _, fam := range synth.FamilyNames() {
		p, err := synth.Generate(synth.Spec{Family: fam, Seed: 7, FootprintWords: 256, Iters: 8})
		if err != nil {
			f.Fatalf("seed spec %s: %v", fam, err)
		}
		seeds = append(seeds, synth.Disassemble(p))
	}
	z := synth.Zoo()[0]
	z.FootprintWords, z.Iters = 1024, 64
	p, err := synth.Generate(z)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, synth.Disassemble(p))
	for i, src := range seeds {
		f.Add(src, uint8(i), uint8(37*i))
	}
	f.Fuzz(func(t *testing.T, src []byte, width, memLat uint8) {
		p, err := synth.Assemble(src)
		if err != nil {
			return
		}
		const warm, measure = 1_000, 4_000
		cfg := timing.DefaultConfig()
		cfg.WarmInsts, cfg.MaxInsts = warm, measure
		pts := selectFor(p, warm, measure)
		tr := record(t, p, cfg, src)
		checkAgainstReference(t, p, pts, tr, cfg, src)

		other := cfg
		other.Width, other.MemLat = fuzzWidths[int(width)%len(fuzzWidths)], 1+int(memLat)
		if got, want := timing.TraceSpan(other), timing.TraceSpan(cfg); got != want {
			t.Fatalf("width %d memlat %d: TraceSpan %d, want the recording's %d", other.Width, other.MemLat, got, want)
		}
		checkAgainstReference(t, p, pts, tr, other, src)
	})
}
