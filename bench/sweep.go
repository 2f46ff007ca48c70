package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"preexec"
	"preexec/synth"
)

// sweepSystem runs a grid through the library's memoized Sweep, the path
// cmd/tsweep takes. Each repetition gets a fresh StageCache, so every
// repetition does the same stage work.
type sweepSystem struct {
	benches []preexec.SweepBench
	points  []preexec.ConfigPoint
	builds  time.Duration
	// cache and last are the latest repetition's, kept live so the retained
	// heap counts them.
	cache  *preexec.StageCache
	last   *preexec.SweepResult
	digest string
}

// sweepWorkers is the library sweep's worker count: one per core of the
// 2-core machine the benchmark is sized for.
const sweepWorkers = 2

func setupSweep(_ context.Context, in inputs) (system, error) {
	start := time.Now()
	s := &sweepSystem{points: in.points}
	for _, name := range in.benches {
		w, err := preexec.WorkloadByName(name)
		if err != nil {
			return nil, err
		}
		s.benches = append(s.benches, preexec.SweepBench{Name: w.Name, Program: w.Build(1)})
	}
	for _, spec := range in.specs {
		p, err := synth.Generate(spec)
		if err != nil {
			return nil, err
		}
		s.benches = append(s.benches, preexec.SweepBench{Name: spec.Name, Program: p})
	}
	s.builds = time.Since(start)
	return s, nil
}

func (s *sweepSystem) firstCell() (*preexec.Program, preexec.Config) {
	return s.benches[0].Program, s.points[0].Config
}

func (s *sweepSystem) buildCount() (int, time.Duration) { return len(s.benches), s.builds }

// cellClock turns sweep progress events into per-cell latencies. Sweep
// hands cell indices to its workers in order (preexec.ParallelEach feeds
// them over an unbuffered channel), so the first `workers` cells start with
// the run and cell i starts when the (i-workers+1)-th completion frees its
// worker.
type cellClock struct {
	start   time.Time
	workers int
	mu      sync.Mutex
	done    []time.Time       // completion times, in completion order
	end     map[int]time.Time // completion time by cell index
}

func (c *cellClock) progress(ev preexec.SuiteEvent) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done = append(c.done, now)
	c.end[ev.Index] = now
}

func (c *cellClock) latencies(n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		end, ok := c.end[i]
		if !ok {
			continue
		}
		start := c.start
		if i >= c.workers {
			start = c.done[i-c.workers]
		}
		out = append(out, ms(end.Sub(start)))
	}
	return out
}

func (s *sweepSystem) rep(ctx context.Context, tr *tracing) (repResult, error) {
	s.cache, s.last = nil, nil // at most one repetition's cache is live
	sw := &preexec.Sweep{Workers: sweepWorkers, Cache: preexec.NewStageCache()}
	repSpan := tr.start("", "repetition")
	if tr != nil {
		sw.Engine = preexec.New(preexec.WithStageObserver(newStageMeter(tr, repSpan)))
	}
	clock := &cellClock{workers: sweepWorkers, end: make(map[int]time.Time)}
	sw.Progress = clock.progress
	clock.start = time.Now()
	res, err := sw.Run(ctx, s.benches, s.points)
	wall := time.Since(clock.start)
	repSpan.End()
	if res == nil {
		return repResult{}, err
	}
	s.cache, s.last = sw.Cache, res

	r := repResult{wall: wall, cells: len(res.Cells), latencies: clock.latencies(len(res.Cells))}
	for _, c := range res.Cells {
		if c.Err != nil {
			r.failures = append(r.failures, fmt.Errorf("cell %s/%s: %w", c.Bench, c.Point, c.Err))
			continue
		}
		r.reports = append(r.reports, c.Report)
	}
	digest, err := reportDigest(r.reports)
	if err != nil {
		return repResult{}, err
	}
	if s.digest != "" && digest != s.digest {
		r.failures = append(r.failures, fmt.Errorf("repetition's reports differ from the previous repetition's"))
	}
	s.digest = digest
	if tr != nil {
		tr.t.addCache(res.Cache)
		tr.t.mu.Lock()
		tr.t.workers = sweepWorkers
		tr.t.wall += wall
		tr.t.mu.Unlock()
	}
	return r, nil
}

// verify re-evaluates two seeded cells of the grid on an engine with no
// cache — the full-simulation path, not trace replay — and requires the
// sweep's reports byte for byte.
func (s *sweepSystem) verify(ctx context.Context, seed uint64) (int, []error) {
	r := newRand(seed, "verify")
	var failures []error
	const n = 2
	for k := 0; k < n; k++ {
		i := r.IntN(len(s.last.Cells))
		cell := s.last.Cells[i]
		b, p := s.benches[i/len(s.points)], s.points[i%len(s.points)]
		rep, err := preexec.New(preexec.WithConfig(p.Config)).Evaluate(ctx, b.Program)
		if err != nil {
			failures = append(failures, fmt.Errorf("reference %s/%s: %w", cell.Bench, cell.Point, err))
			continue
		}
		want, err1 := json.Marshal(rep)
		got, err2 := json.Marshal(cell.Report)
		if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
			failures = append(failures, fmt.Errorf("cell %s/%s differs from its uncached full simulation", cell.Bench, cell.Point))
		}
	}
	return n, failures
}

func (s *sweepSystem) outputs() ([]preexec.Report, string, error) {
	var reps []preexec.Report
	for _, c := range s.last.Cells {
		reps = append(reps, c.Report)
	}
	return reps, s.digest, nil
}

func (s *sweepSystem) close() {}
