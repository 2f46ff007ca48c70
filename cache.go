package preexec

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

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
//     trace up here; a run too long to retain gets a trace without
//     records.
//
// Cached profile regions are shared by pointer: selection only reads the
// slice forests (paths and bodies are copied out), so concurrent selections
// over one cached profile are safe and results stay bit-for-bit identical
// to uncached runs (pinned by TestSweepSelectionGridCacheCounts).
//
// A StageCache is safe for concurrent use. Concurrent requests for the same
// key are single-flighted: one computes, the rest wait for its result. A
// failed computation (typically cancellation) is not memoized — the entry
// is dropped and coalesced waiters retry with their own contexts, so one
// sweep's cancellation cannot poison another sweep sharing the cache.
//
// Keys do not include the stage backends: every engine sharing a cache
// must use the same Profiler and Simulator (see WithStageCache). Program
// identity is the *Program pointer — rebuilt programs never hit — and by
// default entries live as long as the cache does, so scope a cache to the
// sweeps that share its programs. For sweeps over generated corpora too
// large to retain whole, bound the cache with WithStageCacheLimit: the
// least-recently-used entries are evicted (and recomputed on re-request),
// trading recomputation for memory while keeping results bit-identical.
type StageCache struct {
	base    stageMap[baseKey, Stats]
	profile stageMap[profileKey, []ProfileRegion]
	trace   stageMap[traceKey, *Trace]
}

// StageCacheOption customizes a StageCache at construction.
type StageCacheOption func(*StageCache)

// WithStageCacheLimit bounds each stage of the cache to at most n entries
// (n <= 0 means unlimited, the default). When a stage exceeds its bound,
// the least-recently-used entry is evicted; evicted work is recomputed if
// requested again, so giant generated-corpus sweeps can cap the cache's
// footprint without changing any result.
func WithStageCacheLimit(n int) StageCacheOption {
	return func(c *StageCache) {
		c.base.limit = n
		c.profile.limit = n
		c.trace.limit = n
	}
}

// NewStageCache returns an empty stage cache ready for concurrent use.
func NewStageCache(opts ...StageCacheOption) *StageCache {
	c := &StageCache{}
	for _, o := range opts {
		o(c)
	}
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
	return CacheStats{
		BaseRuns:    c.base.runs.Load(),
		BaseHits:    c.base.hits.Load(),
		ProfileRuns: c.profile.runs.Load(),
		ProfileHits: c.profile.hits.Load(),
		TraceRuns:   c.trace.runs.Load(),
		TraceHits:   c.trace.hits.Load(),
		Evictions:   c.base.evictions.Load() + c.profile.evictions.Load() + c.trace.evictions.Load(),
	}
}

// Len returns the entry counts currently held by the three stages.
func (c *StageCache) Len() (baseEntries, profileEntries, traceEntries int) {
	return c.base.len(), c.profile.len(), c.trace.len()
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

// FlightGroup coalesces concurrent computations of the same key: while one
// caller computes, every other caller asking for that key waits for — and
// shares — its result. Unlike the stage maps inside StageCache it does NOT
// memoize: the entry is dropped the moment the computation finishes, so a
// later request computes afresh (and, for the evaluation service, lands on
// the StageCache for the expensive stages). It is the request-level
// single-flight layer of the serve package: N concurrent identical
// /v1/evaluate requests run one full evaluation between them.
//
// Failed computations follow the StageCache contract: the failure (typically
// the computing caller's own cancellation) is returned only to the caller
// whose compute it was; coalesced waiters retry with their own contexts, so
// one client's disconnect cannot fail another's identical request.
//
// The zero FlightGroup is ready for concurrent use.
type FlightGroup[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]

	// flights counts computations actually started; shared counts calls
	// served by coalescing onto another caller's flight.
	flights atomic.Int64
	shared  atomic.Int64
	// waiting gauges callers currently blocked on another flight (tests and
	// the /v1/stats in-flight accounting).
	waiting atomic.Int64
}

type flight[V any] struct {
	done chan struct{} // closed when val/ok are set
	val  V
	ok   bool // false: the flight failed, waiters retry
}

// Stats returns the group's cumulative counters: computations started and
// calls served by coalescing.
func (g *FlightGroup[K, V]) Stats() (flights, shared int64) {
	return g.flights.Load(), g.shared.Load()
}

// Waiting gauges the callers currently blocked on another caller's flight.
func (g *FlightGroup[K, V]) Waiting() int64 { return g.waiting.Load() }

// Do returns compute(key)'s result, coalescing concurrent calls for the same
// key onto a single computation. shared reports whether this call was served
// by another caller's flight. Cancelling ctx abandons waiting (the flight
// itself keeps running for its owner).
func (g *FlightGroup[K, V]) Do(ctx context.Context, key K, compute func() (V, error)) (v V, shared bool, err error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, false, err
		}
		g.mu.Lock()
		if f, ok := g.m[key]; ok {
			g.mu.Unlock()
			g.waiting.Add(1)
			select {
			case <-f.done:
				g.waiting.Add(-1)
				if !f.ok {
					// The flight failed; its entry is already gone. Retry
					// (and compute, if nobody else has started).
					continue
				}
				g.shared.Add(1)
				return f.val, true, nil
			case <-ctx.Done():
				g.waiting.Add(-1)
				return zero, false, ctx.Err()
			}
		}
		if g.m == nil {
			g.m = make(map[K]*flight[V])
		}
		f := &flight[V]{done: make(chan struct{})}
		g.m[key] = f
		g.mu.Unlock()
		g.flights.Add(1)

		// The flight must land even if compute panics (an http.Handler
		// recovers the panic and keeps serving, so a leaked entry would
		// wedge this key forever): treat a panicking compute as a failed
		// flight — waiters retry — and let the panic propagate.
		landed := false
		defer func() {
			if landed {
				return
			}
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
			close(f.done) // f.ok stays false: waiters retry
		}()
		v, err := compute()
		landed = true
		g.mu.Lock()
		delete(g.m, key) // no memoization: success and failure both drop
		g.mu.Unlock()
		f.val, f.ok = v, err == nil
		close(f.done)
		if err != nil {
			return zero, false, err
		}
		return v, false, nil
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
// A nil memo (an engine outside a sweep, or a sweep without a cache)
// replays on every call and profiles each shape on its own.
type planMemo struct {
	replays stageMap[runKey, Stats]
	shapes  map[profileKey][]ProfileOptions
	passes  stageMap[profileKey, [][]ProfileRegion]
}

// newPlanMemo returns an empty plan memo for a sweep over cache.
func newPlanMemo(cache *StageCache) *planMemo {
	m := &planMemo{shapes: make(map[profileKey][]ProfileOptions)}
	m.passes.limit = cache.profile.limit
	return m
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
	return m.replays.getOrCompute(ctx, runKey{prog: p, cfg: cfg, pts: pthread.TimingKey(pts)}, compute)
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
	out, err := m.passes.getOrCompute(ctx, g, func() ([][]ProfileRegion, error) { return pass(shapes) })
	if err != nil {
		return nil, err
	}
	return out[i], nil
}

// baseStats returns the memoized base timing run for (p, cfg), computing it
// on a miss. cfg must be a nil-p-thread ModeBase configuration.
func (c *StageCache) baseStats(ctx context.Context, p *Program, cfg TimingConfig, compute func() (Stats, error)) (Stats, error) {
	return c.base.getOrCompute(ctx, baseKey{prog: p, cfg: normalizeBaseTiming(cfg)}, compute)
}

// regions returns the memoized profile for (p, opts), computing it on a
// miss. Callers must treat the returned regions as immutable.
func (c *StageCache) regions(ctx context.Context, p *Program, opts ProfileOptions, compute func() ([]ProfileRegion, error)) ([]ProfileRegion, error) {
	return c.profile.getOrCompute(ctx, profileKey{prog: p, opts: opts}, compute)
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
	return c.trace.getOrCompute(ctx, key, compute)
}

// stageMap is one memoized stage: a keyed set of single-flight entries,
// optionally bounded by an LRU eviction policy (limit > 0). The LRU list is
// intrusive — most-recently-used at head — and eviction only unmaps an
// entry: a flight already handed out completes normally for the callers
// holding it, so eviction can never change a result, only force a later
// recomputation.
type stageMap[K comparable, V any] struct {
	mu         sync.Mutex
	m          map[K]*stageEntry[K, V]
	limit      int // max entries (0 = unlimited)
	head, tail *stageEntry[K, V]
	runs, hits atomic.Int64
	evictions  atomic.Int64
	// waiting gauges the callers currently blocked on another caller's
	// flight (tests wait on it to cancel a flight under a waiter).
	waiting atomic.Int64
}

type stageEntry[K comparable, V any] struct {
	key    K
	done   chan struct{} // closed when val/failed are set
	val    V
	failed bool

	// LRU links, guarded by the stageMap mutex. linked distinguishes
	// "unmapped by eviction" from "in the list" so failure cleanup and
	// eviction stay idempotent.
	prev, next *stageEntry[K, V]
	linked     bool
}

// moveToFront marks e most recently used. Caller holds s.mu.
func (s *stageMap[K, V]) moveToFront(e *stageEntry[K, V]) {
	if !e.linked || s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *stageMap[K, V]) pushFront(e *stageEntry[K, V]) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
	e.linked = true
}

func (s *stageMap[K, V]) unlink(e *stageEntry[K, V]) {
	if !e.linked {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	e.linked = false
}

// drop removes e from the map and LRU list if still present. Caller holds
// s.mu.
func (s *stageMap[K, V]) drop(e *stageEntry[K, V]) {
	if cur, ok := s.m[e.key]; ok && cur == e {
		delete(s.m, e.key)
	}
	s.unlink(e)
}

func (s *stageMap[K, V]) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func (s *stageMap[K, V]) getOrCompute(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		s.mu.Lock()
		if e, ok := s.m[key]; ok {
			s.moveToFront(e)
			s.mu.Unlock()
			s.waiting.Add(1)
			select {
			case <-e.done:
				s.waiting.Add(-1)
				if e.failed {
					// The flight failed — typically its own caller's
					// cancellation, which must not poison callers whose
					// contexts are alive. The entry is already dropped;
					// retry (and recompute if nobody else has).
					continue
				}
				// Count hits only for waits that served a value, so
				// hits+runs equals completed lookups even across failed,
				// retried flights.
				s.hits.Add(1)
				return e.val, nil
			case <-ctx.Done():
				s.waiting.Add(-1)
				return zero, ctx.Err()
			}
		}
		if s.m == nil {
			s.m = make(map[K]*stageEntry[K, V])
		}
		e := &stageEntry[K, V]{key: key, done: make(chan struct{})}
		s.m[key] = e
		s.pushFront(e)
		if s.limit > 0 && len(s.m) > s.limit {
			// Evict the least recently used entry (never the one just
			// inserted: limit >= 1 implies at least two entries here).
			s.drop(s.tail)
			s.evictions.Add(1)
		}
		s.mu.Unlock()
		s.runs.Add(1)

		v, err := compute()
		if err != nil {
			// Failures are not memoized: drop the entry so later requests
			// recompute, then release the waiters that coalesced onto this
			// flight. The failure is returned only to the caller whose
			// compute it was.
			s.mu.Lock()
			s.drop(e)
			s.mu.Unlock()
			e.failed = true
			close(e.done)
			return zero, err
		}
		e.val = v
		close(e.done)
		return v, nil
	}
}
