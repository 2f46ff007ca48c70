package serve

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"preexec"
)

// gate is the server-wide worker pool: a counting semaphore bounding how
// many expensive pipeline stages run at once. Requests queue here instead of
// oversubscribing the simulator, so N concurrent clients cost bounded CPU
// and memory. Acquisition is context-aware: a disconnected client stops
// waiting for a slot. The in-flight and queued gauges feed /v1/stats — the
// saturation signal a sweep coordinator's health probe steers failover by.
type gate struct {
	slots  chan struct{}
	queued atomic.Int64
}

func newGate(n int) *gate { return &gate{slots: make(chan struct{}, n)} }

func (g *gate) acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	g.queued.Add(1)
	defer g.queued.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gate) release() { <-g.slots }

// inFlight is the number of expensive stages currently holding a slot.
func (g *gate) inFlight() int { return len(g.slots) }

// queueDepth is the number of stages blocked waiting for a slot.
func (g *gate) queueDepth() int64 { return g.queued.Load() }

// gatedProfiler runs the wrapped profiling backend inside a worker slot.
// Only the computation acquires: requests coalesced onto a cached flight
// never enter the gate.
type gatedProfiler struct {
	g *gate
	p preexec.Profiler
}

func (gp gatedProfiler) Profile(ctx context.Context, p *preexec.Program, opts preexec.ProfileOptions) ([]preexec.ProfileRegion, error) {
	if err := gp.g.acquire(ctx); err != nil {
		return nil, err
	}
	defer gp.g.release()
	return gp.p.Profile(ctx, p, opts)
}

// gatedSimulator runs the wrapped timing backend's trace recordings and
// replays inside a worker slot each, so no timing stage escapes the worker
// pool.
type gatedSimulator struct {
	g *gate
	s preexec.Simulator
}

func (gs gatedSimulator) RecordTrace(ctx context.Context, p *preexec.Program, cfg preexec.TimingConfig) (*preexec.Trace, error) {
	if err := gs.g.acquire(ctx); err != nil {
		return nil, err
	}
	defer gs.g.release()
	return gs.s.RecordTrace(ctx, p, cfg)
}

func (gs gatedSimulator) Replay(ctx context.Context, t *preexec.Trace, pts []*preexec.PThread, cfg preexec.TimingConfig) (preexec.Stats, error) {
	if err := gs.g.acquire(ctx); err != nil {
		return preexec.Stats{}, err
	}
	defer gs.g.release()
	return gs.s.Replay(ctx, t, pts, cfg)
}

// progKey identifies one built benchmark: canonical lower-case name plus the
// workload scale.
type progKey struct {
	name  string
	scale int
}

// programCacheLimit bounds the built-program cache: (workload, scale) is a
// client-controlled axis, so without a bound a scale-scanning client could
// grow server memory without limit. 64 entries cover any practical registry
// x scale working set; the least-recently-used entry is evicted beyond
// that. An evicted program is rebuilt on re-request with a new pointer, so
// its StageCache entries go dead — under heavy multi-scale traffic pair
// this with -cachelimit so the dead entries evict too.
const programCacheLimit = 64

// progEntry is one cached build; use orders LRU eviction.
type progEntry struct {
	bench preexec.SweepBench
	use   int64
}

// lookupProgram returns the cached benchmark for key, refreshing its LRU
// position.
func (s *Server) lookupProgram(key progKey) (preexec.SweepBench, bool) {
	s.progMu.Lock()
	defer s.progMu.Unlock()
	e, ok := s.programs[key]
	if !ok {
		return preexec.SweepBench{}, false
	}
	s.progTick++
	e.use = s.progTick
	return e.bench, true
}

// storeProgram inserts a built benchmark, evicting the least recently used
// entry beyond the bound.
func (s *Server) storeProgram(key progKey, b preexec.SweepBench) {
	s.progMu.Lock()
	defer s.progMu.Unlock()
	s.progTick++
	s.programs[key] = &progEntry{bench: b, use: s.progTick}
	if len(s.programs) > programCacheLimit {
		var oldest progKey
		min := int64(1<<63 - 1)
		for k, e := range s.programs {
			if e.use < min {
				min, oldest = e.use, k
			}
		}
		delete(s.programs, oldest)
	}
}

// bench resolves a workload name and returns its benchmark built at the
// given scale, reusing a previous build when one exists. Pointer-stable
// programs are what let the StageCache coalesce identical stage work across
// requests — a rebuilt program would never hit. Builds are single-flighted
// per key, run outside the cache lock inside a worker-gate slot (large
// generated programs are real work, so they count against -workers), and
// honour the requesting client's context; a cancelled builder's waiters
// retry under their own contexts, like every other flight.
func (s *Server) bench(ctx context.Context, name string, scale int) (preexec.SweepBench, error) {
	w, err := preexec.WorkloadByName(name)
	if err != nil {
		return preexec.SweepBench{}, err
	}
	key := progKey{name: strings.ToLower(w.Name), scale: scale}
	if b, ok := s.lookupProgram(key); ok {
		return b, nil
	}
	b, _, err := s.builds.Do(ctx, key, func() (preexec.SweepBench, error) {
		// A racer may have stored the build between the miss and the flight.
		if b, ok := s.lookupProgram(key); ok {
			return b, nil
		}
		if err := s.gate.acquire(ctx); err != nil {
			return preexec.SweepBench{}, err
		}
		defer s.gate.release()
		// No Test build: only ConfigPoint.Derive consumes it, and Derive is
		// a Go func no HTTP request can set — an eager BuildTest would
		// double both the build cost and the cache's memory for nothing.
		stop := s.obs.StageStart("build", w.Name)
		b := preexec.SweepBench{Name: w.Name, Program: w.Build(scale)}
		stop()
		s.storeProgram(key, b)
		return b, nil
	})
	return b, err
}

// benchesFor resolves a request's benchmark list (all registered workloads
// when empty) at the given scale. A failed lookup reports which list entry
// was bad.
func (s *Server) benchesFor(ctx context.Context, names []string, scale int) ([]preexec.SweepBench, error) {
	if len(names) == 0 {
		names = preexec.WorkloadNames()
	}
	benches := make([]preexec.SweepBench, len(names))
	for i, name := range names {
		b, err := s.bench(ctx, name, scale)
		if err != nil {
			return nil, fmt.Errorf("benches[%d]: %w", i, err)
		}
		benches[i] = b
	}
	return benches, nil
}

// cachedPrograms returns the number of built (workload, scale) programs held
// for cross-request stage-cache identity.
func (s *Server) cachedPrograms() int {
	s.progMu.Lock()
	defer s.progMu.Unlock()
	return len(s.programs)
}
