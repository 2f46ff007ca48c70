package preexec

import (
	"context"
	"errors"
	"fmt"

	"preexec/internal/selector"
	"preexec/internal/slice"
	"preexec/internal/timing"
)

// Profiler is the functional profiling stage: it runs a program's recorded
// front-end stream through the cache model and builds slice trees for every
// dynamic L2 load miss. It reads the trace — the same recording the timing
// runs replay, so a program executes once however many stages consume it —
// and never executes the program itself. One call is one pass over the
// trace for a list of slice shapes — options that differ only in Scope and
// MaxSlice — and returns one region list per entry of opts, each exactly
// what a pass over that entry alone returns. It returns an error if the
// options differ in any other field. The engine passes one shape per cell,
// or, within a Sweep, every shape its cells profile the program with (the
// Figure 4 scope × length axes), and a trace that covers the profile's
// warm-up and window (or a streamed trace, for runs too long to record).
type Profiler interface {
	Profile(ctx context.Context, t *Trace, opts []ProfileOptions) ([][]ProfileRegion, error)
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
	timingSimulator struct{}
)

func (sliceProfiler) Profile(ctx context.Context, t *Trace, opts []ProfileOptions) ([][]ProfileRegion, error) {
	return slice.ProfileShapes(ctx, t, opts)
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
// no p-thread can launch), "profile" (one profiling pass, which may serve
// several slice shapes of a sweep), "select", and "replay" (a timing run
// of a non-empty selection scored against the trace); bench is the
// program under evaluation ("" where no single program applies). Stages
// never nest, but Evaluate runs the profile concurrently with the base run
// (and, when the profile reads a trace of its own, with that trace's
// recording), so StageStart may be called from several goroutines and
// observed stage times of one evaluation may overlap. Only real executions
// are observed — stage-cache, replay-memo and profile-pass hits never
// reach the observer, so observed latencies are true stage costs.
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
func ReferenceStages() (Profiler, Simulator) {
	return sliceProfiler{}, timingSimulator{}
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
	simulator Simulator
	// cache, if non-nil, memoizes traces, base timing runs, and profiles
	// across engines sharing it (see StageCache and Sweep).
	cache *StageCache
	// plan, if non-nil, is shared by the cell engines of one sweep: it
	// memoizes their selection-dependent timing runs and profiling passes
	// (see Sweep.Plan).
	plan *planMemo
	// observer, if non-nil, is called around every stage execution.
	observer StageObserver
}

// Option customizes an Engine.
type Option func(*Engine)

// WithMachine sets the machine configuration.
func WithMachine(m MachineConfig) Option { return func(e *Engine) { e.cfg.Machine = m } }

// WithSelection sets the selection configuration.
func WithSelection(s SelectionConfig) Option { return func(e *Engine) { e.cfg.Selection = s } }

// WithConfig sets all three configuration groups at once.
func WithConfig(c Config) Option { return func(e *Engine) { e.cfg = c } }

// WithProfiler swaps the functional profiling backend.
func WithProfiler(p Profiler) Option { return func(e *Engine) { e.profiler = p } }

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
// replay memo of the engine's sweep plan.
func (e *Engine) run(ctx context.Context, c *StageCache, p *Program, pts []*PThread, cfg TimingConfig) (Stats, error) {
	if len(pts) == 0 || cfg.Mode == ModeBase {
		cfg = normalizeBaseTiming(cfg)
		return c.baseStats(ctx, p, cfg, func() (Stats, error) {
			return e.replay(ctx, c, p, nil, cfg, "base")
		})
	}
	return e.plan.replayStats(ctx, p, pts, cfg, func() (Stats, error) {
		return e.replay(ctx, c, p, pts, cfg, "replay")
	})
}

// replay replays pts against the trace memoized in c for (p, cfg),
// observed as stage.
func (e *Engine) replay(ctx context.Context, c *StageCache, p *Program, pts []*PThread, cfg TimingConfig, stage string) (Stats, error) {
	t, err := e.trace(ctx, c, p, cfg)
	if err != nil {
		return Stats{}, err
	}
	if e.observer != nil {
		defer e.observer.StageStart(stage, p.Name)()
	}
	return e.simulator.Replay(ctx, t, pts, cfg)
}

// trace fetches — or records, observed as the "trace" stage — the trace
// memoized in c for a run of p under cfg. Recording finishes before the
// stage that reads the trace starts, so observed stages never nest, and a
// stage waiting on another caller's recording holds no backend resources.
func (e *Engine) trace(ctx context.Context, c *StageCache, p *Program, cfg TimingConfig) (*Trace, error) {
	return c.traceFor(ctx, p, cfg, func() (*Trace, error) {
		if e.observer != nil {
			defer e.observer.StageStart("trace", p.Name)()
		}
		return e.simulator.RecordTrace(ctx, p, cfg)
	})
}

// profile runs the profiling backend on p through the stage cache c, under
// the normalized configuration cfg. A miss is served by one pass over every
// slice shape of the profile's group — the shapes the engine's sweep plan
// profiles p with, or the configuration's alone — and within a sweep that
// pass is single-flighted and shared by the group's other shapes. The pass
// reads the trace memoized in c for cfg.profileTiming, by default the base
// run's. The stage observer wraps the pass, not the lookups, so only real
// profiling passes are timed.
func (e *Engine) profile(ctx context.Context, c *StageCache, p *Program, cfg Config) ([]ProfileRegion, error) {
	opts := cfg.profileOptions()
	return c.regions(ctx, p, opts, func() ([]ProfileRegion, error) {
		return e.plan.profileShape(ctx, p, opts, func(shapes []ProfileOptions) ([][]ProfileRegion, error) {
			t, err := e.trace(ctx, c, p, cfg.profileTiming())
			if err != nil {
				return nil, err
			}
			if e.observer != nil {
				defer e.observer.StageStart("profile", p.Name)()
			}
			out, err := e.profiler.Profile(ctx, t, shapes)
			if err == nil && len(out) != len(shapes) {
				err = fmt.Errorf("preexec: profiler returned %d region lists for %d slice shapes", len(out), len(shapes))
			}
			return out, err
		})
	})
}

// Evaluate runs the full pipeline on one program: base timing run,
// profile, selection, and the pre-execution timing run. The base run and
// the profile both read the program's trace, which with the default
// profile window is one recording: whichever stage misses first records it
// and the other waits for it. The profile does not depend on the base run,
// so the two then run concurrently and are joined before selection; a
// failed base run (a failed recording included) cancels the profile, and
// its error wins over the profile's. Cancelling ctx stops the active
// simulation stages promptly and returns ctx.Err().
func (e *Engine) Evaluate(ctx context.Context, p *Program) (Report, error) {
	cfg := e.cfg.Normalized()
	c := e.stages()
	type profiled struct {
		regions []ProfileRegion
		err     error
	}
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	prof := make(chan profiled, 1)
	go func() {
		regions, err := e.profile(pctx, c, cfg.profiledProgram(p), cfg)
		prof <- profiled{regions, err}
	}()
	base, err := e.run(ctx, c, p, nil, cfg.timing(ModeBase))
	if err != nil {
		cancel()
		<-prof
		return Report{}, fmt.Errorf("preexec: base run: %w", err)
	}
	pr := <-prof
	if pr.err != nil {
		return Report{}, fmt.Errorf("preexec: selection: %w", pr.err)
	}
	sel, _, err := e.selectRegions(pr.regions, base.IPC, cfg)
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
	return e.profile(ctx, e.stages(), p, e.cfg.Normalized())
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
	regions, err := e.profile(ctx, c, cfg.profiledProgram(p), cfg)
	if err != nil {
		return SelectionResult{}, 0, err
	}
	return e.selectRegions(regions, baseIPC, cfg)
}

// selectRegions runs the selection stage over profiled regions under the
// normalized configuration cfg, returning the selection and the profile's
// L2 miss count.
func (e *Engine) selectRegions(regions []ProfileRegion, baseIPC float64, cfg Config) (SelectionResult, int64, error) {
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
	opts := cfg.selectorOptions(baseIPC)
	if cfg.Selection.RegionInsts > 0 {
		return selector.SelectRegions(regions, opts), misses, nil
	}
	return selector.SelectForest(regions[0].Forest, opts), misses, nil
}

// SelectForest applies the engine's selection parameters to an
// already-profiled forest (the tselect flow: many p-thread sets from one
// profile).
func (e *Engine) SelectForest(f *Forest, baseIPC float64) SelectionResult {
	return selector.SelectForest(f, e.cfg.Normalized().selectorOptions(baseIPC))
}

// Simulate measures a program with the given p-threads under one of the
// simulation modes (ModeBase with nil p-threads is the unassisted machine;
// the overhead/latency modes are the paper's §4.3 validation diagnostics).
func (e *Engine) Simulate(ctx context.Context, p *Program, pts []*PThread, mode Mode) (Stats, error) {
	return e.run(ctx, e.stages(), p, pts, e.cfg.Normalized().timing(mode))
}
