package synth

// Replay-versus-run differentials over the synthetic corpus. RunContext
// replays a recording of exactly its run's span; these tests replay one
// recording of twice that span per program, serving all five modes, and
// require the same Stats, over the curated Zoo scenarios and — via the
// shared .prx fuzz corpus — over arbitrary programs the assembler accepts.
// The independent check against the frozen reference core is
// internal/timing's synth_equiv_test.go.

import (
	"context"
	"testing"

	"preexec"
	"preexec/internal/advantage"
	"preexec/internal/frontend"
	"preexec/internal/selector"
	"preexec/internal/slice"
	"preexec/internal/timing"
)

// replayModes is every simulation mode a recorded base-run trace must serve.
var replayModes = []timing.Mode{
	timing.ModeBase,
	timing.ModeNormal,
	timing.ModeOverheadExecute,
	timing.ModeOverheadSequence,
	timing.ModeLatencyOnly,
}

// recordTwice records twice the records a run of prog under cfg needs.
func recordTwice(prog *preexec.Program, cfg timing.Config) (*timing.Trace, error) {
	return frontend.Record(context.Background(), prog, 2*timing.TraceSpan(cfg), timing.TraceVersion)
}

// replaySelect mirrors the timing package's test selection helper: profile
// the sample window and select p-threads with the default advantage model.
// A program the profiler rejects simply replays unassisted (nil p-threads) —
// the equivalence contract holds either way.
func replaySelect(prog *preexec.Program, warm, measure int64) []*preexec.PThread {
	forest, err := slice.ProfileWhole(prog, slice.ProfileOptions{WarmInsts: warm, MaxInsts: measure})
	if err != nil {
		return nil
	}
	res := selector.SelectForest(forest, selector.Options{Params: advantage.DefaultParams(1.0), Merge: true})
	return res.PThreads
}

// TestReplayMatchesSimulationZoo pins replay to RunContext across the
// whole curated corpus: for each Zoo scenario, one trace recorded at twice
// the run's span serves all five modes bit-identically, selected p-threads
// in play.
func TestReplayMatchesSimulationZoo(t *testing.T) {
	const warm, measure = 4_000, 12_000
	for _, z := range Zoo() {
		z := z
		t.Run(z.Name, func(t *testing.T) {
			t.Parallel()
			prog := MustGenerate(z)
			pts := replaySelect(prog, warm, measure)
			cfg := timing.DefaultConfig()
			cfg.WarmInsts, cfg.MaxInsts = warm, measure
			tr, err := recordTwice(prog, cfg)
			if err != nil {
				t.Fatalf("Record: %v", err)
			}
			for _, mode := range replayModes {
				cfg.Mode = mode
				want, err := timing.RunContext(context.Background(), prog, pts, cfg)
				if err != nil {
					t.Fatalf("%s: simulation: %v", mode, err)
				}
				got, err := timing.Replay(context.Background(), tr, pts, cfg)
				if err != nil {
					t.Fatalf("%s: replay: %v", mode, err)
				}
				if got != want {
					t.Errorf("%s: replay diverges from simulation\n got: %+v\nwant: %+v", mode, got, want)
				}
			}
		})
	}
}

// FuzzReplayEquivalence is the replay-vs-run differential over arbitrary
// source: anything the assembler accepts must replay from a trace recorded
// at twice the run's span with Stats byte-for-byte equal to RunContext, in
// every mode. It starts from the same .prx seed corpus as the assembler targets,
// so the mutator explores real instruction mixes rather than noise.
func FuzzReplayEquivalence(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		const warm, measure = 1_000, 4_000
		pts := replaySelect(p, warm, measure)
		cfg := timing.DefaultConfig()
		cfg.WarmInsts, cfg.MaxInsts = warm, measure
		tr, err := recordTwice(p, cfg)
		if err != nil {
			t.Fatalf("Record: %v\n--- source:\n%s", err, src)
		}
		for _, mode := range replayModes {
			cfg.Mode = mode
			want, werr := timing.RunContext(context.Background(), p, pts, cfg)
			got, rerr := timing.Replay(context.Background(), tr, pts, cfg)
			if (werr != nil) != (rerr != nil) {
				t.Fatalf("%s: error mismatch: simulation=%v replay=%v\n--- source:\n%s", mode, werr, rerr, src)
			}
			if werr != nil {
				continue
			}
			if got != want {
				t.Fatalf("%s: replay diverges from simulation\n got: %+v\nwant: %+v\n--- source:\n%s", mode, got, want, src)
			}
		}
	})
}
