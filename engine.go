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
// optional p-threads — on the simulated machine, in two steps. RecordTrace
// captures a run's front-end event stream (fetch order, effective
// addresses, predictor verdicts — all selection-independent), and Replay
// times a p-thread set against it. Every engine timing run, the base run
// included, replays the trace memoized for its program and
// timing.TraceSpan, so one recording serves every selection, mode and
// machine of that span: RecordTrace must read cfg only through its span.
// The reference simulator
// returns a trace without records for a run too long to retain, which
// Replay serves by streaming the front end: its Stats equal
// timing.RunContext's at any run length.
type Simulator interface {
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

func (timingSimulator) RecordTrace(ctx context.Context, p *Program, cfg TimingConfig) (*Trace, error) {
	return timing.RecordTrace(ctx, p, cfg)
}

func (timingSimulator) Replay(ctx context.Context, t *Trace, pts []*PThread, cfg TimingConfig) (Stats, error) {
	return timing.Replay(ctx, t, pts, cfg)
}

// StageObserver receives a callback around every pipeline stage execution:
// StageStart is called when a stage begins and the func it returns when the
// stage ends. Stages are named "trace" (a trace recording), "base" (the
// unassisted timing run, replayed from the trace — also every run in which
// no p-thread can launch), "profile", "select", and "replay" (a timing run
// of a non-empty selection scored against the trace); bench is the
// program under evaluation ("" where no single program applies). Stages
// never nest, and only real executions are observed — stage-cache and
// replay-memo hits never reach the observer, so observed latencies are true
// stage costs.
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
// aggregate-advantage selection, and the pre-execution timing run. Every
// call goes through a StageCache — the shared one attached with
// WithStageCache, or else a fresh one scoped to the call — so the timing
// runs of one evaluation replay a single recorded trace. Build one with
// New; the zero Engine is not usable.
type Engine struct {
	cfg       Config
	profiler  Profiler
	selector  Selector
	simulator Simulator
	// cache, if non-nil, memoizes traces, base timing runs, and profiles
	// across engines sharing it (see StageCache and Sweep).
	cache *StageCache
	// replays, if non-nil, memoizes the selection-dependent timing runs
	// across the cell engines of one sweep (see Sweep.Plan).
	replays *replayMemo
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

// WithStageCache attaches a shared stage cache: traces, base timing runs
// and profiles are memoized in it, so engines sharing one cache — a sweep's
// cells — perform each per-benchmark stage once. Results are bit-for-bit
// identical to uncached evaluation; see StageCache for the key structure.
//
// The cache keys on program and configuration, not on the stage backends:
// every engine sharing a cache must use the same Profiler and Simulator
// backends (as Sweep-built engines do), or cells will silently serve each
// other's backend results.
func WithStageCache(c *StageCache) Option { return func(e *Engine) { e.cache = c } }

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
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// stages returns the stage cache one call runs through: the attached shared
// cache, or a fresh cache scoped to the call.
func (e *Engine) stages() *StageCache {
	if e.cache != nil {
		return e.cache
	}
	return NewStageCache()
}

// run performs one timing run under cfg by replaying the trace memoized in
// c. A run in which no p-thread can launch — an empty selection, or
// ModeBase — is the base run: the backend reads the mode and the throttle
// only when injecting p-threads, so it is served by the memoized base run.
// Any other run replays its p-threads against the trace through the
// engine's replay memo.
func (e *Engine) run(ctx context.Context, c *StageCache, p *Program, pts []*PThread, cfg TimingConfig) (Stats, error) {
	if len(pts) == 0 || cfg.Mode == ModeBase {
		cfg = normalizeBaseTiming(cfg)
		return c.baseStats(ctx, p, cfg, func() (Stats, error) {
			return e.replay(ctx, c, p, nil, cfg, "base")
		})
	}
	return replayStats(ctx, e.replays, p, pts, cfg, func() (Stats, error) {
		return e.replay(ctx, c, p, pts, cfg, "replay")
	})
}

// replay fetches — or records, observed as the "trace" stage — the trace
// memoized in c for (p, cfg), then replays pts against it, observed as
// stage. Recording finishes before the replay starts, so observed stages
// never nest.
func (e *Engine) replay(ctx context.Context, c *StageCache, p *Program, pts []*PThread, cfg TimingConfig, stage string) (Stats, error) {
	t, err := c.traceFor(ctx, p, cfg, func() (*Trace, error) {
		if e.observer != nil {
			defer e.observer.StageStart("trace", p.Name)()
		}
		return e.simulator.RecordTrace(ctx, p, cfg)
	})
	if err != nil {
		return Stats{}, err
	}
	if e.observer != nil {
		defer e.observer.StageStart(stage, p.Name)()
	}
	return e.simulator.Replay(ctx, t, pts, cfg)
}

// profile runs the profiling backend through the stage cache c. The stage
// observer wraps the compute closure, not the cache lookup, so only real
// profile executions are timed.
func (e *Engine) profile(ctx context.Context, c *StageCache, p *Program, opts ProfileOptions) ([]ProfileRegion, error) {
	return c.regions(ctx, p, opts, func() ([]ProfileRegion, error) {
		if e.observer != nil {
			defer e.observer.StageStart("profile", p.Name)()
		}
		return e.profiler.Profile(ctx, p, opts)
	})
}

// Evaluate runs the full pipeline on one program: base timing run,
// selection, and the pre-execution timing run. Cancelling ctx stops the
// active simulation stage promptly and returns ctx.Err().
func (e *Engine) Evaluate(ctx context.Context, p *Program) (Report, error) {
	cfg := e.cfg.Normalized()
	c := e.stages()
	base, err := e.run(ctx, c, p, nil, cfg.timing(ModeBase))
	if err != nil {
		return Report{}, fmt.Errorf("preexec: base run: %w", err)
	}
	sel, _, err := e.selectOn(ctx, c, p, base.IPC, cfg)
	if err != nil {
		return Report{}, fmt.Errorf("preexec: selection: %w", err)
	}
	pre, err := e.run(ctx, c, p, sel.PThreads, cfg.timing(ModeNormal))
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
	return e.profile(ctx, e.stages(), p, e.cfg.Normalized().profileOptions())
}

// Select runs only the selection half of the pipeline: profile (on
// Selection.ProfileOn or the program itself) and slice-tree selection.
// baseIPC is the unassisted main-thread IPC fed to the advantage model; it
// returns the selection and the profile's observed L2 miss count.
func (e *Engine) Select(ctx context.Context, p *Program, baseIPC float64) (SelectionResult, int64, error) {
	return e.selectOn(ctx, e.stages(), p, baseIPC, e.cfg.Normalized())
}

// selectOn is Select under the normalized configuration cfg, profiling
// through the stage cache c.
func (e *Engine) selectOn(ctx context.Context, c *StageCache, p *Program, baseIPC float64, cfg Config) (SelectionResult, int64, error) {
	regions, err := e.profile(ctx, c, cmp.Or(cfg.Selection.ProfileOn, p), cfg.profileOptions())
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
	return e.run(ctx, e.stages(), p, pts, e.cfg.Normalized().timing(mode))
}
