package preexec

import (
	"cmp"
	"context"
	"errors"
	"fmt"

	"preexec/internal/selector"
	"preexec/internal/slice"
	"preexec/internal/timing"
)

// Profiler is the functional profiling stage: it runs a program through the
// cache model and builds slice trees for every dynamic L2 load miss.
type Profiler interface {
	Profile(ctx context.Context, p *Program, opts ProfileOptions) ([]ProfileRegion, error)
}

// Selector is the p-thread selection stage: it solves the profiled slice
// trees for the p-thread set with maximal aggregate advantage. regioned
// reports whether per-region selection was requested.
type Selector interface {
	Select(regions []ProfileRegion, opts SelectorOptions, regioned bool) SelectionResult
}

// Simulator is the detailed timing stage: it measures a program — with
// optional p-threads — on the simulated machine.
type Simulator interface {
	Simulate(ctx context.Context, p *Program, pts []*PThread, cfg TimingConfig) (Stats, error)
}

// TraceReplayer is the optional Simulator extension behind the trace-replay
// fast path: RecordTrace captures the base run's front-end event stream once
// (fetch order, effective addresses, predictor verdicts — all
// selection-independent), and Replay scores a p-thread set against the
// recorded stream instead of re-running the front end, bit-identical to
// Simulate. Engines with a stage cache route selection-dependent timing
// runs through this interface automatically when their Simulator
// implements it (the reference simulator does, with one backend behind
// both paths); a Simulator without it simply always simulates, streaming
// the front end on every run. See WithReplay for the escape hatch.
type TraceReplayer interface {
	RecordTrace(ctx context.Context, p *Program, cfg TimingConfig) (*Trace, error)
	Replay(ctx context.Context, t *Trace, pts []*PThread, cfg TimingConfig) (Stats, error)
}

// The reference stage implementations.
type (
	sliceProfiler   struct{}
	treeSelector    struct{}
	timingSimulator struct{}
)

func (sliceProfiler) Profile(ctx context.Context, p *Program, opts ProfileOptions) ([]ProfileRegion, error) {
	return slice.ProfileContext(ctx, p, opts)
}

func (treeSelector) Select(regions []ProfileRegion, opts SelectorOptions, regioned bool) SelectionResult {
	if regioned {
		return selector.SelectRegions(regions, opts)
	}
	return selector.SelectForest(regions[0].Forest, opts)
}

func (timingSimulator) Simulate(ctx context.Context, p *Program, pts []*PThread, cfg TimingConfig) (Stats, error) {
	return timing.RunContext(ctx, p, pts, cfg)
}

func (timingSimulator) RecordTrace(ctx context.Context, p *Program, cfg TimingConfig) (*Trace, error) {
	return timing.RecordTrace(ctx, p, cfg)
}

func (timingSimulator) Replay(ctx context.Context, t *Trace, pts []*PThread, cfg TimingConfig) (Stats, error) {
	return timing.Replay(ctx, t, pts, cfg)
}

// StageObserver receives a callback around every pipeline stage execution:
// StageStart is called when a stage begins and the func it returns when the
// stage ends. Stages are named "base" (the unassisted timing run),
// "profile", "select", "sim" (a fully simulated p-thread timing run),
// "trace" (a base-run trace recording), and "replay" (a p-thread run scored
// against the recorded trace); bench is the program under evaluation (""
// where no single program applies). With a stage cache attached, only real
// executions are observed — cache hits never reach the observer, so
// observed latencies are true stage costs.
//
// Observers exist for instrumentation (the serve package feeds stage
// latency histograms and span traces from this hook) and must not influence
// results: the engine calls them for their side effects only.
type StageObserver interface {
	StageStart(stage, bench string) func()
}

// ReferenceStages returns the built-in reference stage backends — the ones
// New installs by default. They exist for callers that wrap stages with
// cross-cutting behaviour (the serve package gates the expensive stages
// through a server-wide worker pool) while keeping results bit-identical to
// the defaults.
func ReferenceStages() (Profiler, Selector, Simulator) {
	return sliceProfiler{}, treeSelector{}, timingSimulator{}
}

// Engine runs the pre-execution pipeline of the paper's tool flow (§4.1)
// over its stage backends: a base timing run, a functional profile, the
// aggregate-advantage selection, and the pre-execution timing run. Build
// one with New; the zero Engine is not usable.
type Engine struct {
	cfg       Config
	profiler  Profiler
	selector  Selector
	simulator Simulator
	// cache, if non-nil, memoizes base timing runs, profiles, and base-run
	// traces across engines sharing it (see StageCache and Sweep).
	cache *StageCache
	// replay enables the trace-replay fast path for selection-dependent
	// timing runs (see WithReplay). It only engages with a cache attached:
	// without memoization, recording a trace to replay it once costs as much
	// as simulating directly.
	replay bool
	// observer, if non-nil, is called around every stage execution.
	observer StageObserver
}

// Option customizes an Engine.
type Option func(*Engine)

// WithMachine sets the machine configuration.
func WithMachine(m MachineConfig) Option { return func(e *Engine) { e.cfg.Machine = m } }

// WithSelection sets the selection configuration.
func WithSelection(s SelectionConfig) Option { return func(e *Engine) { e.cfg.Selection = s } }

// WithAblation sets the ablation switches.
func WithAblation(a AblationConfig) Option { return func(e *Engine) { e.cfg.Ablation = a } }

// WithConfig sets all three configuration groups at once.
func WithConfig(c Config) Option { return func(e *Engine) { e.cfg = c } }

// WithProfiler swaps the functional profiling backend.
func WithProfiler(p Profiler) Option { return func(e *Engine) { e.profiler = p } }

// WithSelector swaps the selection backend.
func WithSelector(s Selector) Option { return func(e *Engine) { e.selector = s } }

// WithSimulator swaps the timing-simulation backend.
func WithSimulator(s Simulator) Option { return func(e *Engine) { e.simulator = s } }

// WithStageCache attaches a shared stage cache: base timing runs and
// profiles are memoized in it, so engines sharing one cache — a sweep's
// cells — perform each per-benchmark stage once. Results are bit-for-bit
// identical to uncached evaluation; see StageCache for the key structure.
//
// The cache keys on program and configuration, not on the stage backends:
// every engine sharing a cache must use the same Profiler and Simulator
// backends (as Sweep-built engines do), or cells will silently serve each
// other's backend results.
func WithStageCache(c *StageCache) Option { return func(e *Engine) { e.cache = c } }

// WithReplay toggles the trace-replay fast path (on by default). With a
// stage cache attached, a Simulator implementing TraceReplayer, and a run
// small enough to record (timing.Traceable), selection-dependent timing runs
// are scored against a memoized base-run trace instead of re-running the
// front end — bit-identical results, faster on selection-only grids.
// WithReplay(false) streams the front end on every run instead of
// memoizing a trace (the -replay=off flag of cmd/tsweep).
func WithReplay(on bool) Option { return func(e *Engine) { e.replay = on } }

// WithStageObserver installs an observer called around every stage
// execution (nil = none, the default — the hot path then pays one nil check
// and nothing else). Sweep-built cell engines inherit their base engine's
// observer, so one observer sees a whole sweep's stage work.
func WithStageObserver(o StageObserver) Option { return func(e *Engine) { e.observer = o } }

// New builds an Engine over the paper's base configuration (DefaultConfig)
// and the reference stage implementations, then applies the options in
// order.
func New(opts ...Option) *Engine {
	e := &Engine{
		cfg:       DefaultConfig(),
		profiler:  sliceProfiler{},
		selector:  treeSelector{},
		simulator: timingSimulator{},
		replay:    true,
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// run performs one timing run under cfg, routing it by what it depends on.
// A base run (no p-threads, ModeBase) goes through the stage cache when one
// is attached. A selection-dependent run replays against the memoized
// base-run trace when the fast path applies, and otherwise streams the
// front end. Results are bit-identical either way (the equivalence suites in
// internal/timing and synth pin this).
func (e *Engine) run(ctx context.Context, p *Program, pts []*PThread, cfg TimingConfig) (Stats, error) {
	if pts == nil && cfg.Mode == timing.ModeBase {
		if e.cache != nil {
			return e.cache.baseStats(ctx, p, cfg, func() (Stats, error) {
				return e.simulate(ctx, p, nil, cfg, "base")
			})
		}
		return e.simulate(ctx, p, nil, cfg, "base")
	}
	if e.replay && e.cache != nil && timing.Traceable(cfg) {
		if tr, ok := e.simulator.(TraceReplayer); ok {
			return e.replaySimulate(ctx, tr, p, pts, cfg)
		}
	}
	return e.simulate(ctx, p, pts, cfg, "sim")
}

// simulate runs the timing backend under the stage observer. The observer
// wraps only actual executions: the cached base path reaches here from
// inside the cache's compute closure, so cache hits are never observed.
func (e *Engine) simulate(ctx context.Context, p *Program, pts []*PThread, cfg TimingConfig, stage string) (Stats, error) {
	if e.observer != nil {
		defer e.observer.StageStart(stage, p.Name)()
	}
	return e.simulator.Simulate(ctx, p, pts, cfg)
}

// replaySimulate is the trace-replay fast path for one selection-dependent
// timing run: fetch (or record) the memoized base-run trace, then replay the
// p-threads against it. The observer sees real work only — a "trace" stage
// inside the cache's compute closure when the recording actually happens,
// and a "replay" stage per replayed run. Errors propagate; there is no
// silent fall back to streamed simulation, so a replay bug can never hide as a
// performance regression.
func (e *Engine) replaySimulate(ctx context.Context, tr TraceReplayer, p *Program, pts []*PThread, cfg TimingConfig) (Stats, error) {
	t, err := e.cache.traceFor(ctx, p, cfg, func() (*Trace, error) {
		if e.observer != nil {
			defer e.observer.StageStart("trace", p.Name)()
		}
		return tr.RecordTrace(ctx, p, cfg)
	})
	if err != nil {
		return Stats{}, err
	}
	if e.observer != nil {
		defer e.observer.StageStart("replay", p.Name)()
	}
	return tr.Replay(ctx, t, pts, cfg)
}

// profile runs the profiling backend through the stage cache when one is
// attached. The stage observer wraps the compute closure, not the cache
// lookup, so only real profile executions are timed.
func (e *Engine) profile(ctx context.Context, p *Program, opts ProfileOptions) ([]ProfileRegion, error) {
	compute := func() ([]ProfileRegion, error) {
		if e.observer != nil {
			defer e.observer.StageStart("profile", p.Name)()
		}
		return e.profiler.Profile(ctx, p, opts)
	}
	if e.cache != nil {
		return e.cache.regions(ctx, p, opts, compute)
	}
	return compute()
}

// Evaluate runs the full pipeline on one program: base timing run,
// selection, and the pre-execution timing run. Cancelling ctx stops the
// active simulation stage promptly and returns ctx.Err().
func (e *Engine) Evaluate(ctx context.Context, p *Program) (Report, error) {
	cfg := e.cfg.Normalized()
	base, err := e.run(ctx, p, nil, cfg.timing(ModeBase))
	if err != nil {
		return Report{}, fmt.Errorf("preexec: base run: %w", err)
	}
	sel, _, err := e.selectOn(ctx, p, base.IPC, cfg)
	if err != nil {
		return Report{}, fmt.Errorf("preexec: selection: %w", err)
	}
	pre, err := e.run(ctx, p, sel.PThreads, cfg.timing(ModeNormal))
	if err != nil {
		return Report{}, fmt.Errorf("preexec: pre-execution run: %w", err)
	}
	return Report{
		Program:  p.Name,
		Config:   cfg,
		Base:     base,
		Pre:      pre,
		PThreads: sel.PThreads,
		Pred:     sel.Pred,
		// The coverage denominator is the measured machine's own demand-miss
		// count, NOT the selection profile's (which may cover a different
		// input or a shorter window — Figure 7's dynamic and static
		// scenarios).
		BaseMisses: base.L2Misses,
		PredIPC:    selector.PredictIPC(sel.Pred, cfg.Machine.MeasureInsts, base.IPC, float64(cfg.Machine.Width)),
	}, nil
}

// Profile runs only the functional profiling stage on p with the engine's
// selection parameters, returning the slice-tree regions (a single region
// unless Selection.RegionInsts is set). The forest of the first region is
// what tsim -profile persists for tselect.
//
// With a stage cache attached (WithStageCache) the regions may be shared
// with other engines: treat them as immutable.
func (e *Engine) Profile(ctx context.Context, p *Program) ([]ProfileRegion, error) {
	return e.profile(ctx, p, e.cfg.Normalized().profileOptions())
}

// Select runs only the selection half of the pipeline: profile (on
// Selection.ProfileOn or the program itself) and slice-tree selection.
// baseIPC is the unassisted main-thread IPC fed to the advantage model; it
// returns the selection and the profile's observed L2 miss count.
func (e *Engine) Select(ctx context.Context, p *Program, baseIPC float64) (SelectionResult, int64, error) {
	return e.selectOn(ctx, p, baseIPC, e.cfg.Normalized())
}

// selectOn is Select under the normalized configuration cfg.
func (e *Engine) selectOn(ctx context.Context, p *Program, baseIPC float64, cfg Config) (SelectionResult, int64, error) {
	regions, err := e.profile(ctx, cmp.Or(cfg.Selection.ProfileOn, p), cfg.profileOptions())
	if err != nil {
		return SelectionResult{}, 0, err
	}
	if len(regions) == 0 {
		return SelectionResult{}, 0, errors.New("preexec: profile returned no regions")
	}
	var misses int64
	for _, r := range regions {
		misses += r.Forest.L2Misses
	}
	if e.observer != nil {
		defer e.observer.StageStart("select", "")()
	}
	return e.selector.Select(regions, cfg.selectorOptions(baseIPC), cfg.Selection.RegionInsts > 0), misses, nil
}

// SelectForest applies the engine's selection parameters to an
// already-profiled forest (the tselect flow: many p-thread sets from one
// profile).
func (e *Engine) SelectForest(f *Forest, baseIPC float64) SelectionResult {
	return e.selector.Select(
		[]ProfileRegion{{End: f.Insts, Forest: f}},
		e.cfg.Normalized().selectorOptions(baseIPC),
		false,
	)
}

// Simulate measures a program with the given p-threads under one of the
// simulation modes (ModeBase with nil p-threads is the unassisted machine;
// the overhead/latency modes are the paper's §4.3 validation diagnostics).
func (e *Engine) Simulate(ctx context.Context, p *Program, pts []*PThread, mode Mode) (Stats, error) {
	return e.run(ctx, p, pts, e.cfg.Normalized().timing(mode))
}
