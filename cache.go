package preexec

import (
	"context"
	"slices"

	"preexec/internal/memo"
	"preexec/internal/pthread"
	"preexec/internal/timing"
)

// StageCache memoizes the expensive, selection-independent stages of the
// evaluation pipeline across engines that share it: recorded traces, base
// timing runs (replays of those traces), and functional profiles. The
// paper's framework explicitly decouples these stages — one profile and one
// base run can serve many selection variants (§4) — so a sweep whose cells
// differ only in selection or ablation knobs performs each per-benchmark
// stage once. An Engine without a shared cache runs each call through a
// fresh one, so every engine timing run takes the same path.
//
// Entries are keyed by program identity (pointer) plus only the
// configuration fields that feed the stage:
//
//   - base timing runs: the full normalized timing.Config — which an Engine
//     derives from MachineConfig alone — reduced to the base-run identity
//     (NoRSThrottle cleared and Mode set to ModeBase, since both are read
//     only when injecting p-threads). Every run in which no p-thread can
//     launch — an empty selection, or ModeBase — is served from here.
//     Runs of a non-empty selection depend on it and are not cached here;
//     a Sweep shares them among its own cells through a replay memo of its
//     own (see Sweep.Plan).
//   - profiles: the full ProfileOptions (warm-up, profile window, scope,
//     max slice length, region granularity) plus the profiled program —
//     which may be the selection target (SelectionConfig.ProfileOn), not
//     the evaluated program. One entry per slice shape, even when a
//     sweep's single profiling pass computed several (see Sweep).
//   - traces: the record count a run needs, timing.TraceSpan (the run total
//     plus the machine's rounded fetch-ahead), plus the timing.TraceVersion
//     simulator fingerprint, so a timing-core change invalidates recorded
//     traces cleanly. The recorded front-end stream depends on the program
//     alone (see timing.RecordTrace), so every machine point, mode and
//     selection of one run length shares one trace: memory latencies and
//     widths up to 16 do. Every timing run and profiling pass looks its
//     trace up here, whatever its length: a trace holds about 3 bytes
//     per recorded instruction.
//
// Cached profile regions are shared by pointer: selection only reads the
// slice forests (paths and bodies are copied out), so concurrent selections
// over one cached profile are safe and results stay bit-for-bit identical
// to uncached runs (pinned by TestSweepSelectionGridCacheCounts).
//
// Each stage is a memo.Map, whose contract covers concurrency: concurrent
// requests for one key are single-flighted, and a failed computation
// (typically cancellation) is not memoized, so one sweep's cancellation
// cannot poison another sweep sharing the cache.
//
// Program identity is the *Program pointer — rebuilt programs never hit —
// and by default entries live as long as the cache does, so scope a cache
// to the sweeps that share its programs, or bound it with
// WithStageCacheLimit.
// The zero StageCache is an empty, unlimited cache.
type StageCache struct {
	retain  memo.Retention
	base    memo.Map[baseKey, Stats]
	profile memo.Map[profileKey, []ProfileRegion]
	trace   memo.Map[traceKey, *Trace]
}

// StageCacheOption customizes a StageCache at construction.
type StageCacheOption func(*StageCache)

// WithStageCacheLimit bounds each stage of the cache to at most n entries
// (n <= 0 means unlimited, the default). When a stage exceeds its bound,
// the least-recently-used entry is evicted; evicted work is recomputed if
// requested again, so giant generated-corpus sweeps can cap the cache's
// footprint without changing any result.
func WithStageCacheLimit(n int) StageCacheOption {
	return func(c *StageCache) { c.retain = memo.LRU(n) }
}

// NewStageCache returns an empty stage cache ready for concurrent use.
func NewStageCache(opts ...StageCacheOption) *StageCache {
	c := &StageCache{}
	for _, o := range opts {
		o(c)
	}
	c.base.SetRetention(c.retain)
	c.profile.SetRetention(c.retain)
	c.trace.SetRetention(c.retain)
	return c
}

// CacheStats counts a StageCache's activity: Runs are stage executions that
// actually happened (cache misses), Hits are requests served from (or
// coalesced onto) an existing entry. A selection-knob sweep (Figure 5's
// opt/merge grid) over N benchmarks reports exactly N BaseRuns and N
// ProfileRuns regardless of the grid size; a grid axis that feeds a stage
// (scope, region granularity, memory latency) adds runs only to that
// stage. Profiles count per slice shape: a sweep's profiling pass over
// several shapes of one program serves each shape's first request as a
// ProfileRun, so the counters equal those of profiling every shape on its
// own.
type CacheStats struct {
	BaseRuns    int64 `json:"base_runs"`
	BaseHits    int64 `json:"base_hits"`
	ProfileRuns int64 `json:"profile_runs"`
	ProfileHits int64 `json:"profile_hits"`
	// TraceRuns counts trace recordings, TraceHits trace lookups served
	// from an existing recording. An evaluation looks its trace up for the
	// base run only when the base run itself misses, for a pre-execution
	// run only when that run is actually replayed, and for the profile
	// only when a profiling pass actually runs, so a sweep makes
	// BaseRuns+ReplayRuns+passes lookups. It records one trace per program
	// and TraceSpan: a grid over N benchmarks that varies only selection
	// knobs, memory latency or widths up to 16 records exactly N traces,
	// which its profiles read too. A pre-execution run of an empty
	// selection is the base run and counts as a base hit.
	TraceRuns int64 `json:"trace_runs,omitempty"`
	TraceHits int64 `json:"trace_hits,omitempty"`
	// ReplayRuns counts the pre-execution runs a sweep replayed, ReplayHits
	// those served from (or coalesced onto) another cell's run of the same
	// p-threads on the same trace and timing configuration. Only Sweep.Run
	// fills them — the replay memo belongs to one sweep, not to the
	// StageCache — so StageCache.Stats reports them as zero.
	ReplayRuns int64 `json:"replay_runs,omitempty"`
	ReplayHits int64 `json:"replay_hits,omitempty"`
	// Evictions counts entries dropped by the WithStageCacheLimit LRU
	// bound (all stages); always zero for unlimited caches.
	Evictions int64 `json:"evictions,omitempty"`
}

// Stats returns a snapshot of the cache's cumulative hit/run counters.
func (c *StageCache) Stats() CacheStats {
	b, p, t := c.base.Stats(), c.profile.Stats(), c.trace.Stats()
	return CacheStats{
		BaseRuns:    b.Runs,
		BaseHits:    b.Hits,
		ProfileRuns: p.Runs,
		ProfileHits: p.Hits,
		TraceRuns:   t.Runs,
		TraceHits:   t.Hits,
		Evictions:   b.Evictions + p.Evictions + t.Evictions,
	}
}

// Len returns the entry counts currently held by the three stages.
func (c *StageCache) Len() (baseEntries, profileEntries, traceEntries int) {
	return c.base.Len(), c.profile.Len(), c.trace.Len()
}

// sub returns the counter deltas since an earlier snapshot.
func (s CacheStats) sub(prev CacheStats) CacheStats {
	return CacheStats{
		BaseRuns:    s.BaseRuns - prev.BaseRuns,
		BaseHits:    s.BaseHits - prev.BaseHits,
		ProfileRuns: s.ProfileRuns - prev.ProfileRuns,
		ProfileHits: s.ProfileHits - prev.ProfileHits,
		TraceRuns:   s.TraceRuns - prev.TraceRuns,
		TraceHits:   s.TraceHits - prev.TraceHits,
		ReplayRuns:  s.ReplayRuns - prev.ReplayRuns,
		ReplayHits:  s.ReplayHits - prev.ReplayHits,
		Evictions:   s.Evictions - prev.Evictions,
	}
}

type baseKey struct {
	prog *Program
	cfg  TimingConfig
}

type profileKey struct {
	prog *Program
	opts ProfileOptions
}

type traceKey struct {
	prog    *Program
	span    int64
	version string
}

// runKey is the identity of a selection-dependent timing run: the program,
// the full timing configuration (Mode and NoRSThrottle included), and the
// p-thread set's pthread.TimingKey.
type runKey struct {
	prog *Program
	cfg  TimingConfig
	pts  string
}

// planMemo is the state one Sweep.Plan shares among its cell engines:
//
//   - replays memoizes the selection-dependent timing runs, so cells whose
//     selections yield the same p-threads on the same trace share one
//     Replay;
//   - shapes groups the profiles the plan's cells request by profiled
//     program and every ProfileOptions field except the slice shape
//     (Scope, MaxSlice), listing each group's distinct shapes. It is
//     read-only after Plan;
//   - passes single-flights and memoizes one profiling pass per group, so
//     a group's first profile miss profiles every one of its shapes and
//     the others are served from that pass. It holds as many passes as
//     the stage cache holds profiles (WithStageCacheLimit).
//
// A nil memo (an engine outside a sweep) replays on every call and
// profiles each shape on its own.
type planMemo struct {
	replays *memo.Map[runKey, Stats]
	shapes  map[profileKey][]ProfileOptions
	passes  *memo.Map[profileKey, [][]ProfileRegion]
}

// newPlanMemo returns an empty plan memo for a sweep over cache.
func newPlanMemo(cache *StageCache) *planMemo {
	return &planMemo{
		replays: memo.New[runKey, Stats](memo.Unlimited),
		shapes:  make(map[profileKey][]ProfileOptions),
		passes:  memo.New[profileKey, [][]ProfileRegion](cache.retain),
	}
}

// addShape adds a cell's profile — the profiled program and its normalized
// options — to its profile group.
func (m *planMemo) addShape(p *Program, opts ProfileOptions) {
	g := groupKey(p, opts)
	if !slices.Contains(m.shapes[g], opts) {
		m.shapes[g] = append(m.shapes[g], opts)
	}
}

// groupKey is the profile group of (p, opts): the profile key with the
// slice shape cleared.
func groupKey(p *Program, opts ProfileOptions) profileKey {
	opts.Scope, opts.MaxSlice = 0, 0
	return profileKey{prog: p, opts: opts}
}

// replayStats returns the memoized timing run of pts against p under cfg,
// computing it on a miss (on every call when m is nil).
func (m *planMemo) replayStats(ctx context.Context, p *Program, pts []*PThread, cfg TimingConfig, compute func() (Stats, error)) (Stats, error) {
	if m == nil {
		return compute()
	}
	return m.replays.Do(ctx, runKey{prog: p, cfg: cfg, pts: pthread.TimingKey(pts)}, compute)
}

// profileShape returns the regions of p profiled under opts from a pass over
// every shape of its profile group, running the pass through pass on a miss.
// Outside a plan, or for a group of one shape, the pass is over opts alone
// and not memoized here (the stage cache already single-flights it).
func (m *planMemo) profileShape(ctx context.Context, p *Program, opts ProfileOptions, pass func([]ProfileOptions) ([][]ProfileRegion, error)) ([]ProfileRegion, error) {
	var shapes []ProfileOptions
	g := groupKey(p, opts)
	if m != nil {
		shapes = m.shapes[g]
	}
	i := slices.Index(shapes, opts)
	if i < 0 || len(shapes) == 1 {
		out, err := pass([]ProfileOptions{opts})
		if err != nil {
			return nil, err
		}
		return out[0], nil
	}
	out, err := m.passes.Do(ctx, g, func() ([][]ProfileRegion, error) { return pass(shapes) })
	if err != nil {
		return nil, err
	}
	return out[i], nil
}

// baseStats returns the memoized base timing run for (p, cfg), computing it
// on a miss. cfg must be a nil-p-thread ModeBase configuration.
func (c *StageCache) baseStats(ctx context.Context, p *Program, cfg TimingConfig, compute func() (Stats, error)) (Stats, error) {
	return c.base.Do(ctx, baseKey{prog: p, cfg: normalizeBaseTiming(cfg)}, compute)
}

// regions returns the memoized profile for (p, opts), computing it on a
// miss. Callers must treat the returned regions as immutable.
func (c *StageCache) regions(ctx context.Context, p *Program, opts ProfileOptions, compute func() ([]ProfileRegion, error)) ([]ProfileRegion, error) {
	return c.profile.Do(ctx, profileKey{prog: p, opts: opts}, compute)
}

// traceFor returns the memoized trace a run of p under cfg replays — and a
// profile of p reads — recording it on a miss. The recorded front-end stream depends on the
// program alone, and cfg only sizes it, so the entry is keyed by the
// program, timing.TraceSpan(cfg) and the simulator fingerprint (a
// timing-core change invalidates recorded traces cleanly): every machine,
// mode and selection with the same span shares it. Traces are immutable
// after recording and shared by pointer across concurrent readers.
func (c *StageCache) traceFor(ctx context.Context, p *Program, cfg TimingConfig, compute func() (*Trace, error)) (*Trace, error) {
	key := traceKey{prog: p, span: timing.TraceSpan(cfg), version: timing.TraceVersion}
	return c.trace.Do(ctx, key, compute)
}
