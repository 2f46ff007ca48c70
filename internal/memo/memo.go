// Package memo implements the single-flight memo behind every memoized
// stage of the evaluation pipeline: the StageCache stages, a sweep's replay
// and profiling-pass memos, and the evaluation service's built programs and
// request coalescing. The paper's framework works because one profile and
// one base run serve many selection variants (§4); a Map is how that reuse
// is shared safely between concurrent callers.
package memo

import (
	"context"
	"sync"
	"sync/atomic"
)

// Retention is how long a Map keeps a value once its flight has landed.
type Retention struct{ limit int }

var (
	// None keeps nothing: an entry is dropped the moment its flight lands,
	// so concurrent callers share one computation and a later caller
	// computes afresh.
	None = Retention{limit: -1}
	// Unlimited keeps every value for the Map's lifetime.
	Unlimited = Retention{}
)

// LRU keeps the n most recently used entries (n <= 0 means Unlimited).
// Inserting past the bound evicts the least recently used entry, in flight
// or not; eviction only unmaps it, so a flight already handed out completes
// normally for the callers holding it and eviction can never change a
// result, only force a later recomputation.
func LRU(n int) Retention {
	if n <= 0 {
		return Unlimited
	}
	return Retention{limit: n}
}

// Map single-flights computations by key: concurrent calls for one key
// coalesce onto a single computation and share its result, and its
// Retention decides how long landed values serve later calls.
//
// A failed computation (typically its caller's cancellation) is never
// retained: the failure is returned only to the caller whose compute it
// was, and callers coalesced onto its flight retry with their own contexts,
// so one caller's cancellation cannot poison another's. A panicking compute
// lands as a failed flight — waiters retry — and the panic propagates to
// its caller (an http.Handler recovers it and keeps serving, so the key
// must not stay wedged). Compute runs with no lock held.
//
// A Map is safe for concurrent use; the zero Map retains Unlimited.
type Map[K comparable, V any] struct {
	mu     sync.Mutex
	m      map[K]*entry[K, V]
	retain Retention
	// root is the sentinel of the LRU ring, kept only under LRU retention:
	// root.next is the most recently used entry, root.prev the least.
	root entry[K, V]

	runs, hits, evictions atomic.Int64
	// waiting gauges the callers currently blocked on another caller's
	// flight.
	waiting atomic.Int64
}

type entry[K comparable, V any] struct {
	key    K
	done   chan struct{} // closed when val/failed are set
	val    V
	failed bool

	// LRU ring links, guarded by the Map mutex; nil while unlinked.
	prev, next *entry[K, V]
}

// New returns an empty Map with retention r.
func New[K comparable, V any](r Retention) *Map[K, V] {
	return &Map[K, V]{retain: r}
}

// SetRetention sets the retention of a Map before its first use.
func (m *Map[K, V]) SetRetention(r Retention) { m.retain = r }

// Stats is a snapshot of a Map's counters.
type Stats struct {
	// Runs counts computations started, Hits calls served a value from an
	// existing entry (landed or coalesced onto in flight): hits+runs equals
	// the completed lookups, even across failed, retried flights.
	Runs, Hits int64
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64
	// Waiting gauges the callers currently blocked on another flight.
	Waiting int64
}

// Stats returns the Map's cumulative counters and its waiting gauge.
func (m *Map[K, V]) Stats() Stats {
	return Stats{Runs: m.runs.Load(), Hits: m.hits.Load(), Evictions: m.evictions.Load(), Waiting: m.waiting.Load()}
}

// Len returns the number of entries held, flights in progress included.
func (m *Map[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// Do returns compute's value for key: the retained or in-flight entry's if
// there is one, else compute's own, run by this caller. Cancelling ctx
// abandons waiting; the flight itself keeps running for its owner.
func (m *Map[K, V]) Do(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		m.mu.Lock()
		if e, ok := m.m[key]; ok {
			if m.retain.limit > 0 {
				m.unlink(e)
				m.pushFront(e)
			}
			m.mu.Unlock()
			m.waiting.Add(1)
			select {
			case <-e.done:
				m.waiting.Add(-1)
				if e.failed {
					// The failed flight already dropped its entry: retry,
					// and compute if nobody else has started.
					continue
				}
				m.hits.Add(1)
				return e.val, nil
			case <-ctx.Done():
				m.waiting.Add(-1)
				return zero, ctx.Err()
			}
		}
		e := m.insert(key)
		m.mu.Unlock()
		m.runs.Add(1)
		return m.fly(e, compute)
	}
}

// insert maps a new in-flight entry for key, evicting beyond the LRU bound.
// Caller holds m.mu.
func (m *Map[K, V]) insert(key K) *entry[K, V] {
	if m.m == nil {
		m.m = make(map[K]*entry[K, V])
	}
	e := &entry[K, V]{key: key, done: make(chan struct{})}
	m.m[key] = e
	if m.retain.limit > 0 {
		m.pushFront(e)
		if len(m.m) > m.retain.limit {
			// Never the entry just inserted: limit >= 1 implies at least
			// two entries here.
			m.drop(m.root.prev)
			m.evictions.Add(1)
		}
	}
	return e
}

// fly runs compute as e's flight and lands it — as failed if compute
// errors or panics.
func (m *Map[K, V]) fly(e *entry[K, V], compute func() (V, error)) (V, error) {
	ok := false
	defer func() {
		if !ok || m.retain == None {
			m.mu.Lock()
			m.drop(e)
			m.mu.Unlock()
		}
		e.failed = !ok
		close(e.done)
	}()
	v, err := compute()
	if err != nil {
		var zero V
		return zero, err
	}
	e.val, ok = v, true
	return v, nil
}

// drop unmaps e if it is still mapped and unlinks it from the LRU ring.
// Caller holds m.mu.
func (m *Map[K, V]) drop(e *entry[K, V]) {
	if m.m[e.key] == e {
		delete(m.m, e.key)
	}
	m.unlink(e)
}

// pushFront links e as the most recently used entry. Caller holds m.mu.
func (m *Map[K, V]) pushFront(e *entry[K, V]) {
	if m.root.next == nil {
		m.root.next, m.root.prev = &m.root, &m.root
	}
	e.prev, e.next = &m.root, m.root.next
	e.next.prev = e
	m.root.next = e
}

// unlink removes e from the LRU ring if it is linked. Caller holds m.mu.
func (m *Map[K, V]) unlink(e *entry[K, V]) {
	if e.next == nil {
		return
	}
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}
