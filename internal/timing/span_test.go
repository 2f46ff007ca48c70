package timing_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"preexec"
	"preexec/internal/timing"
	"preexec/internal/workload"
	"preexec/synth"
)

// spanPrograms returns vpr.p, mcf and three synth.Zoo scenarios: pointer
// chasing, a strided stream and a dependent hash probe.
func spanPrograms(t *testing.T) []*preexec.Program {
	t.Helper()
	var progs []*preexec.Program
	for _, name := range []string{"vpr.p", "mcf"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, w.Build(1))
	}
	for _, z := range synth.Zoo() {
		switch z.Name {
		case "zoo.chase", "zoo.stride", "zoo.hash.deep":
			progs = append(progs, synth.MustGenerate(z))
		}
	}
	if len(progs) != 5 {
		t.Fatalf("found %d programs, want 5", len(progs))
	}
	return progs
}

// TestOneTraceServesItsSpan pins the identity the stage cache keys traces
// by: one recording at width 8 and memory latency 70 serves every machine
// with the same TraceSpan. Replayed under widths 1 to 16 crossed with
// memory latencies 1, 70 and 300, in all five modes, it must equal
// RunContext on that machine. Width 32 needs a longer span, and the
// width-8 recording must refuse it loudly.
func TestOneTraceServesItsSpan(t *testing.T) {
	const warm, measure = 4_000, 12_000
	rec := timing.DefaultConfig()
	rec.WarmInsts, rec.MaxInsts = warm, measure
	for _, prog := range spanPrograms(t) {
		t.Run(prog.Name, func(t *testing.T) {
			t.Parallel()
			tr, err := timing.RecordTrace(context.Background(), prog, rec)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := int64(tr.Records()), timing.TraceSpan(rec); got != want {
				t.Fatalf("recorded %d records, want TraceSpan %d", got, want)
			}
			pts := selectFor(prog, warm, measure)
			for _, width := range []int{1, 2, 4, 8, 16} {
				for _, memLat := range []int{1, 70, 300} {
					cfg := rec
					cfg.Width, cfg.MemLat = width, memLat
					if got, want := timing.TraceSpan(cfg), timing.TraceSpan(rec); got != want {
						t.Fatalf("width %d memlat %d: TraceSpan %d, want the recording's %d", width, memLat, got, want)
					}
					for _, mode := range timing.AllModes {
						cfg.Mode = mode
						what := fmt.Sprintf("width %d memlat %d %s", width, memLat, mode)
						want, err := timing.RunContext(context.Background(), prog, pts, cfg)
						if err != nil {
							t.Fatalf("%s: simulation: %v", what, err)
						}
						got, err := timing.Replay(context.Background(), tr, pts, cfg)
						if err != nil {
							t.Fatalf("%s: replay: %v", what, err)
						}
						if got != want {
							t.Errorf("%s: replay diverges from simulation\n got: %+v\nwant: %+v", what, got, want)
						}
					}
				}
			}
			wide := rec
			wide.Width = 32
			if timing.TraceSpan(wide) <= timing.TraceSpan(rec) {
				t.Fatalf("width 32 TraceSpan %d, want more than width 8's %d", timing.TraceSpan(wide), timing.TraceSpan(rec))
			}
			if _, err := timing.Replay(context.Background(), tr, pts, wide); err == nil || !strings.Contains(err.Error(), "too short") {
				t.Errorf("width 32 replay of the width-8 recording: err = %v, want a too-short error", err)
			}
		})
	}
}
