package preexec

import (
	"context"
	"fmt"

	"preexec/internal/selector"
	"preexec/internal/slice"
	"preexec/internal/timing"
)

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
// reach the observer — and a stage is observed only once its StageGate
// admitted it, so observed latencies are true stage costs.
//
// Observers exist for instrumentation (the serve package feeds stage
// latency histograms and span traces from this hook) and must not influence
// results: the engine calls them for their side effects only.
type StageObserver interface {
	StageStart(stage, bench string) func()
}

// StageGate admits the expensive stage executions — "trace", "base",
// "replay" and "profile", named as for StageObserver — before they run.
// Admit blocks until the stage may start and returns the release func the
// engine calls when it ends, or an error, which fails the stage without
// running it. Selection is never admitted, and neither is a stage-cache,
// replay-memo or profile-pass hit, nor a caller coalesced onto another
// caller's flight: Admit is called from inside the memoized computation,
// once the stage's trace is resolved, so no admitted stage waits for a
// recording. Calls may come from several goroutines at once.
//
// Gates exist to bound or account for stage work (the serve package admits
// stages through its server-wide worker pool) and cannot change results:
// a stage either runs as it would without the gate or fails.
type StageGate interface {
	Admit(ctx context.Context, stage, bench string) (release func(), err error)
}

// Engine runs the pre-execution pipeline of the paper's tool flow (§4.1):
// a base timing run, a functional profile, the aggregate-advantage
// selection, and the pre-execution timing run. Every call goes through a
// StageCache — the shared one attached with WithStageCache, or else a
// fresh one scoped to the call — so the timing runs of one evaluation
// replay a single recorded trace. Build one with New; the zero Engine is
// not usable.
type Engine struct {
	cfg Config
	// cache, if non-nil, memoizes traces, base timing runs, and profiles
	// across engines sharing it (see StageCache and Sweep).
	cache *StageCache
	// plan, if non-nil, is shared by the cell engines of one sweep: it
	// memoizes their selection-dependent timing runs and profiling passes
	// (see Sweep.Plan).
	plan *planMemo
	// observer, if non-nil, is called around every stage execution.
	observer StageObserver
	// gate, if non-nil, admits every expensive stage execution.
	gate StageGate
}

// Option customizes an Engine.
type Option func(*Engine)

// WithMachine sets the machine configuration.
func WithMachine(m MachineConfig) Option { return func(e *Engine) { e.cfg.Machine = m } }

// WithSelection sets the selection configuration.
func WithSelection(s SelectionConfig) Option { return func(e *Engine) { e.cfg.Selection = s } }

// WithConfig sets all three configuration groups at once.
func WithConfig(c Config) Option { return func(e *Engine) { e.cfg = c } }

// WithStageCache attaches a shared stage cache: traces, base timing runs
// and profiles are memoized in it, so engines sharing one cache — a sweep's
// cells — perform each per-benchmark stage once. Results are bit-for-bit
// identical to evaluation without a shared cache; see StageCache for the
// key structure.
func WithStageCache(c *StageCache) Option { return func(e *Engine) { e.cache = c } }

// WithStageObserver installs an observer called around every stage
// execution (nil = none, the default — the hot path then pays one nil check
// and nothing else). Sweep-built cell engines inherit their base engine's
// observer, so one observer sees a whole sweep's stage work.
func WithStageObserver(o StageObserver) Option { return func(e *Engine) { e.observer = o } }

// WithStageGate installs a gate that admits every expensive stage
// execution (nil = none, the default — the hot path then pays one nil check
// and nothing else). Sweep-built cell engines inherit their base engine's
// gate, as they do its observer.
func WithStageGate(g StageGate) Option { return func(e *Engine) { e.gate = g } }

// New builds an Engine over the paper's base configuration (DefaultConfig),
// then applies the options in order.
func New(opts ...Option) *Engine {
	e := &Engine{cfg: DefaultConfig()}
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
// ModeBase — is the base run: the simulator reads the mode and the throttle
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

// start begins one execution of an expensive stage: the gate admits it
// first, then its observation starts, so an observed stage already holds
// its admission. The returned func ends both, observation first.
func (e *Engine) start(ctx context.Context, stage, bench string) (end func(), err error) {
	end = noop
	if e.gate != nil {
		if end, err = e.gate.Admit(ctx, stage, bench); err != nil {
			return nil, err
		}
	}
	if e.observer != nil {
		observed := e.observer.StageStart(stage, bench)
		if e.gate == nil {
			return observed, nil
		}
		release := end
		end = func() { observed(); release() }
	}
	return end, nil
}

func noop() {}

// replay replays pts against the trace memoized in c for (p, cfg), run as
// stage.
func (e *Engine) replay(ctx context.Context, c *StageCache, p *Program, pts []*PThread, cfg TimingConfig, stage string) (Stats, error) {
	t, err := e.trace(ctx, c, p, cfg)
	if err != nil {
		return Stats{}, err
	}
	end, err := e.start(ctx, stage, p.Name)
	if err != nil {
		return Stats{}, err
	}
	defer end()
	return timing.Replay(ctx, t, pts, cfg)
}

// trace fetches — or records, run as the "trace" stage — the trace
// memoized in c for a run of p under cfg. Recording finishes before the
// stage that reads the trace starts, so observed stages never nest, and a
// stage waiting on another caller's recording holds no admission.
func (e *Engine) trace(ctx context.Context, c *StageCache, p *Program, cfg TimingConfig) (*Trace, error) {
	return c.traceFor(ctx, p, cfg, func() (*Trace, error) {
		end, err := e.start(ctx, "trace", p.Name)
		if err != nil {
			return nil, err
		}
		defer end()
		return timing.RecordTrace(ctx, p, cfg)
	})
}

// profile profiles p through the stage cache c, under the normalized
// configuration cfg. A miss is served by one pass over every slice shape
// of the profile's group — the shapes the engine's sweep plan profiles p
// with, or the configuration's alone — and within a sweep that pass is
// single-flighted and shared by the group's other shapes. The pass reads
// the trace memoized in c for cfg.profileTiming, by default the base run's.
// The pass, not the lookups, is admitted and observed as the "profile"
// stage, so only real profiling passes take a gate slot or are timed.
func (e *Engine) profile(ctx context.Context, c *StageCache, p *Program, cfg Config) ([]ProfileRegion, error) {
	opts := cfg.profileOptions()
	return c.regions(ctx, p, opts, func() ([]ProfileRegion, error) {
		return e.plan.profileShape(ctx, p, opts, func(shapes []ProfileOptions) ([][]ProfileRegion, error) {
			t, err := e.trace(ctx, c, p, cfg.profileTiming())
			if err != nil {
				return nil, err
			}
			end, err := e.start(ctx, "profile", p.Name)
			if err != nil {
				return nil, err
			}
			defer end()
			return slice.ProfileShapes(ctx, t, shapes)
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
	sel := e.selectRegions(pr.regions, base.IPC, cfg)
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

// selectRegions runs the selection stage over profiled regions — a profile
// has at least one, even of a run that halts before its window — under the
// normalized configuration cfg.
func (e *Engine) selectRegions(regions []ProfileRegion, baseIPC float64, cfg Config) SelectionResult {
	if e.observer != nil {
		defer e.observer.StageStart("select", "")()
	}
	opts := cfg.selectorOptions(baseIPC)
	if cfg.Selection.RegionInsts > 0 {
		return selector.SelectRegions(regions, opts)
	}
	return selector.SelectForest(regions[0].Forest, opts)
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
