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

// Admit implements preexec.StageGate: each trace recording, base run,
// replay and profiling pass of every request-built engine holds one slot
// while it runs — a pass one slot however many slice shapes it profiles.
// The engine admits only computations: requests coalesced onto a memoized
// flight never enter the gate, and a stage resolves its trace — waiting on
// another stage's recording, or recording it under a slot of its own —
// before it is admitted, so no slot is held while waiting for a trace.
func (g *gate) Admit(ctx context.Context, _, _ string) (func(), error) {
	if err := g.acquire(ctx); err != nil {
		return nil, err
	}
	return g.release, nil
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

// bench resolves a workload name and returns its benchmark built at the
// given scale, reusing a previous build when one exists. Pointer-stable
// programs are what let the StageCache coalesce identical stage work across
// requests — a rebuilt program would never hit. Builds are single-flighted
// per key by the program memo, run inside a worker-gate slot (large
// generated programs are real work, so they count against -workers), and
// honour the requesting client's context; a cancelled builder's waiters
// retry under their own contexts, like every other flight.
func (s *Server) bench(ctx context.Context, name string, scale int) (preexec.SweepBench, error) {
	w, err := preexec.WorkloadByName(name)
	if err != nil {
		return preexec.SweepBench{}, err
	}
	key := progKey{name: strings.ToLower(w.Name), scale: scale}
	return s.programs.Do(ctx, key, func() (preexec.SweepBench, error) {
		if err := s.gate.acquire(ctx); err != nil {
			return preexec.SweepBench{}, err
		}
		defer s.gate.release()
		// No Test build: only ConfigPoint.Derive consumes it, and Derive is
		// a Go func no HTTP request can set — an eager BuildTest would
		// double both the build cost and the cache's memory for nothing.
		stop := s.obs.StageStart("build", w.Name)
		defer stop()
		return preexec.SweepBench{Name: w.Name, Program: w.Build(scale)}, nil
	})
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
