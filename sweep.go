package preexec

import (
	"context"
	"encoding/json"
	"fmt"
)

// SweepBench is one benchmark of a sweep grid: the evaluated program plus
// an optional alternate-input build for config points that profile on a
// different input (the paper's Figure 7 static scenario).
type SweepBench struct {
	// Name labels the benchmark in cells and progress events (default:
	// Program.Name).
	Name    string
	Program *Program
	// Test is the benchmark's alternate ("test") input, available to
	// ConfigPoint.Derive; nil when no point needs it.
	Test *Program
}

// label is the benchmark's display name — the one rule shared by job names,
// progress events, and cell labels.
func (b SweepBench) label() string {
	if b.Name != "" {
		return b.Name
	}
	return b.Program.Name
}

// SweepBenches builds the named workloads at the given scale into sweep
// benchmarks (all ten when names is empty), train and test inputs both.
// Every name is validated before any program is built, and scale must be
// at least 1.
func SweepBenches(names []string, scale int) ([]SweepBench, error) {
	ws, err := workloadsByName(names)
	if err != nil {
		return nil, err
	}
	if scale < 1 {
		return nil, fmt.Errorf("preexec: sweep scale %d, want >= 1", scale)
	}
	benches := make([]SweepBench, len(ws))
	for i, w := range ws {
		benches[i] = SweepBench{Name: w.Name, Program: w.Build(scale), Test: w.BuildTest(scale)}
	}
	return benches, nil
}

// ConfigPoint is one named point of a sweep grid.
type ConfigPoint struct {
	Name string
	// Config is the point's evaluation configuration. Note the zero Config
	// is NOT the paper's base flow (Optimize/Merge default off); start from
	// DefaultConfig.
	Config Config
	// Derive, if non-nil, computes the cell configuration per benchmark —
	// for points that reference the benchmark's programs (e.g. profiling on
	// the test input). It takes precedence over Config.
	Derive func(bench SweepBench) Config
}

// SweepCell is one completed (benchmark, config point) evaluation.
type SweepCell struct {
	Bench  string `json:"bench"`
	Point  string `json:"point"`
	Report Report `json:"report"`
	// Err is the cell's own failure, nil for completed cells. Cells never
	// started because the sweep stopped early carry ErrJobNotRun.
	Err error `json:"-"`
}

// MarshalJSON renders Err as an "error" string so failed cells stay
// distinguishable from completed zero reports in machine-readable output.
func (c SweepCell) MarshalJSON() ([]byte, error) {
	type plain SweepCell // avoid recursing into this method
	out := struct {
		plain
		Error string `json:"error,omitempty"`
	}{plain: plain(c)}
	if c.Err != nil {
		out.Error = c.Err.Error()
	}
	return json.Marshal(out)
}

// SweepResult is a completed sweep: cells in benchmark-major, grid order
// (the same cell order Plan produces), plus the stage cache's counters.
type SweepResult struct {
	Cells []SweepCell `json:"cells"`
	// Cache counts this run's stage work — the delta of the cache's
	// counters around the run, so a shared Sweep.Cache reports per-run
	// numbers (attribution is approximate if other sweeps hit the same
	// cache concurrently), plus the run's own replay memo counters
	// (ReplayRuns/ReplayHits, exact). Zero when the cache is disabled. For a
	// selection-only grid over N previously-unseen benchmarks, BaseRuns
	// and ProfileRuns are exactly N; a scope x length grid of S shapes
	// counts N*S ProfileRuns though it profiles in N passes.
	Cache CacheStats `json:"cache"`
}

// Sweep evaluates a (benchmark x configuration) grid over the Suite worker
// pool, memoizing the selection-independent stages in a StageCache so cells
// that differ only in selection or ablation knobs share base timing runs
// and profiles. Each Run also shares work among its cells that the cache
// keys apart: cells whose selections yield the same p-threads on the same
// trace and timing configuration replay once, a cell that selects nothing
// reuses its base run, and cells that profile one program under different
// slicing scopes and maximum p-thread lengths (Figure 4) share one
// profiling pass. Cell reports are bit-for-bit identical to uncached
// evaluation.
type Sweep struct {
	// Engine supplies the stage backends (profiler and simulator) the
	// cells run on (nil = the reference implementations). Its configuration
	// is ignored: each cell evaluates under its ConfigPoint's.
	Engine *Engine
	// Workers bounds concurrent cell evaluations (<= 0 = GOMAXPROCS).
	Workers int
	// Progress, if non-nil, is called once per completed cell with
	// Name = "<bench>/<point>".
	Progress func(SuiteEvent)
	// NoCache disables stage memoization: every cell recomputes its own
	// base run, profile and pre-execution replay (the -cache=off escape
	// hatch of cmd/tsweep).
	NoCache bool
	// Cache, if non-nil, is used (and shared) instead of a fresh per-Run
	// cache — for sweeps issued in several Run calls over the same
	// *Program values (entries are keyed by program pointer and retained
	// for the cache's lifetime; rebuilt programs never hit). Ignored when
	// NoCache is set.
	Cache *StageCache
}

// Plan validates the grid and lays out its cells as suite jobs in
// benchmark-major order: every benchmark must have a program and every
// point a name, rejected with the offending index up front rather than
// failing per-job at run time. The returned jobs carry per-cell engines
// that share the given stage cache (nil = uncached) and, with a cache, one
// memo of the plan's own: cells whose selections yield the same p-threads
// on the same trace share one timing run, and the cells' profiles are
// grouped by profiled program and every option but the slice shape, so
// the first profile miss of a group profiles all its shapes in one pass.
func (s *Sweep) Plan(benches []SweepBench, points []ConfigPoint, cache *StageCache) ([]Job, error) {
	if len(benches) == 0 {
		return nil, fmt.Errorf("preexec: sweep has no benchmarks")
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("preexec: sweep has no config points")
	}
	for i, b := range benches {
		if b.Program == nil {
			return nil, fmt.Errorf("preexec: sweep benchmark %d (%q) has no program", i, b.Name)
		}
	}
	for i, pt := range points {
		if pt.Name == "" {
			return nil, fmt.Errorf("preexec: sweep config point %d has no name", i)
		}
	}
	base := s.Engine
	if base == nil {
		base = New()
	}
	var plan *planMemo
	if cache != nil {
		plan = newPlanMemo(cache)
	}
	jobs := make([]Job, 0, len(benches)*len(points))
	for _, b := range benches {
		for _, pt := range points {
			cfg := pt.Config
			if pt.Derive != nil {
				cfg = pt.Derive(b)
			}
			e := New(
				WithConfig(cfg),
				WithProfiler(base.profiler),
				WithSimulator(base.simulator),
				WithStageCache(cache),
				WithStageObserver(base.observer),
			)
			if plan != nil {
				norm := e.cfg.Normalized()
				plan.addShape(norm.profiledProgram(b.Program), norm.profileOptions())
				e.plan = plan
			}
			jobs = append(jobs, Job{Name: b.label() + "/" + pt.Name, Program: b.Program, Engine: e})
		}
	}
	return jobs, nil
}

// Run plans and evaluates the grid. The first failure cancels the cells
// still in flight and is returned as the summary error; the result is
// still returned with every cell's report or per-cell error filled in
// (completed cells keep their reports, unstarted cells carry ErrJobNotRun).
func (s *Sweep) Run(ctx context.Context, benches []SweepBench, points []ConfigPoint) (*SweepResult, error) {
	cache := s.Cache
	if s.NoCache {
		cache = nil
	} else if cache == nil {
		cache = NewStageCache()
	}
	jobs, err := s.Plan(benches, points, cache)
	if err != nil {
		return nil, err
	}
	var before CacheStats
	if cache != nil {
		before = cache.Stats()
	}
	suite := &Suite{Workers: s.Workers, Progress: s.Progress}
	reports, errs, err := suite.Run(ctx, jobs)

	res := &SweepResult{Cells: make([]SweepCell, len(jobs))}
	for i := range jobs {
		bi, pi := i/len(points), i%len(points)
		cell := SweepCell{Bench: benches[bi].label(), Point: points[pi].Name}
		if errs != nil {
			cell.Err = errs[i]
		}
		if reports != nil && cell.Err == nil {
			cell.Report = reports[i]
		}
		res.Cells[i] = cell
	}
	if cache != nil {
		res.Cache = cache.Stats().sub(before)
		replays := &jobs[0].Engine.plan.replays // shared by every cell of the plan
		res.Cache.ReplayRuns, res.Cache.ReplayHits = replays.runs.Load(), replays.hits.Load()
	}
	return res, err
}

// workloadsByName resolves benchmark names (all registered when empty),
// validating every name before returning. A failed lookup is wrapped with
// the offending list position so callers resolving externally-submitted
// name lists (a -bench flag, a /v1/sweep "benches" array) can report which
// entry was bad; the cause still matches ErrUnknownWorkload.
func workloadsByName(names []string) ([]Workload, error) {
	if len(names) == 0 {
		return Workloads(), nil
	}
	ws := make([]Workload, len(names))
	for i, name := range names {
		w, err := WorkloadByName(name)
		if err != nil {
			return nil, fmt.Errorf("preexec: benchmark %d of %d: %w", i+1, len(names), err)
		}
		ws[i] = w
	}
	return ws, nil
}
