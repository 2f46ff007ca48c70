package main

import (
	"context"
	"fmt"
	"runtime"

	"preexec"
)

// allocMeter is the probe's stage observer: it reads the heap counters
// around every stage execution and charges the difference to the stage.
// It is exact only while nothing else runs, and it allocates nothing
// itself between the two reads: the counters are preallocated and each
// stage's end func is built once.
type allocMeter struct {
	calls, allocs, bytes [numStages]uint64
	before, after        runtime.MemStats
	ends                 [numStages]func()
}

func newAllocMeter() *allocMeter {
	a := &allocMeter{}
	for st := range a.ends {
		a.ends[st] = func() {
			runtime.ReadMemStats(&a.after)
			a.calls[st]++
			a.allocs[st] += a.after.Mallocs - a.before.Mallocs
			a.bytes[st] += a.after.TotalAlloc - a.before.TotalAlloc
		}
	}
	return a
}

func (a *allocMeter) StageStart(stage, _ string) func() {
	st := stageIndex(stage)
	if st < 0 {
		return func() {}
	}
	runtime.ReadMemStats(&a.before)
	return a.ends[st]
}

// probe is the serial allocation cost of one call of each layer: heap
// allocations and MB allocated.
type probe struct {
	allocs, mb [numStages]float64
}

// probeRuns is how many evaluations the probe measures after a warm-up
// evaluation.
const probeRuns = 2

// probeLayers evaluates the workload's first cell serially, with no other
// load running (testing.Benchmark style), each time on a fresh stage cache
// so every stage executes once: base run, profile, selection, trace
// recording and replay. The engine's stage observer attributes the heap
// allocations to the stages.
func probeLayers(ctx context.Context, p *preexec.Program, cfg preexec.Config) (probe, error) {
	a := newAllocMeter()
	for i := 0; i <= probeRuns; i++ {
		if i == 1 {
			// The warm-up evaluation is not counted.
			a.calls, a.allocs, a.bytes = [numStages]uint64{}, [numStages]uint64{}, [numStages]uint64{}
		}
		eng := preexec.New(preexec.WithConfig(cfg), preexec.WithStageCache(preexec.NewStageCache()), preexec.WithStageObserver(a))
		if _, err := eng.Evaluate(ctx, p); err != nil {
			return probe{}, fmt.Errorf("probe %s: %w", p.Name, err)
		}
	}
	var pr probe
	for _, st := range []int{stProfile, stSelect, stBase, stTrace, stReplay} {
		if a.calls[st] == 0 {
			return probe{}, fmt.Errorf("probe %s: the engine ran no %s stage", p.Name, stageNames[st])
		}
		pr.allocs[st] = float64(a.allocs[st]) / float64(a.calls[st])
		pr.mb[st] = float64(a.bytes[st]) / float64(a.calls[st]) / (1 << 20)
	}
	return pr, nil
}
