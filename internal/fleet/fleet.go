// Package fleet is the robustness substrate of the distributed sweep
// coordinator: a consistent-hash ring routing cells to backends, per-backend
// health tracking with consecutive-failure ejection and probe re-admission,
// and a retry orchestrator with exponential backoff, seeded jitter,
// per-attempt timeouts, and failover along a caller-given serving order.
//
// The package is deliberately transport-free: callers supply attempt and
// probe callbacks, so the same machinery is unit-testable without a network
// and reusable for any per-key fan-out. It is also deterministic by
// construction — routing is a pure function of the backend name set, backoff
// jitter draws from an explicitly seeded source, and nothing here reads the
// wall clock — so the coordinator's merge order can never depend on fleet
// timing (enforced by preexeclint's determinism analyzer; see
// lint.DeterministicScope).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"preexec/internal/obs"
)

// ErrNoBackends reports that every backend was ejected when an attempt
// needed one. Callers treat it as the signal for graceful degradation (the
// sweep coordinator evaluates the cell locally).
var ErrNoBackends = errors.New("fleet: no live backends")

// permanentError marks a failure as the request's own: retrying it on
// another backend cannot change the outcome.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err to tell Do the failure is deterministic for this
// request (a validation rejection, not a backend fault): Do returns it
// immediately without retrying and without charging the backend's health.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err carries a Permanent marker.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Config are the robustness parameters. The zero value selects the defaults
// noted per field (WithDefaults applies them).
type Config struct {
	// EjectAfter is the consecutive-failure count that ejects a backend
	// from rotation (default 3). An ejected backend receives no cells until
	// a probe succeeds against it.
	EjectAfter int
	// RetryBudget is the total attempt budget per cell, first try included
	// (default 4).
	RetryBudget int
	// BackoffBase is the delay before the first retry; each further retry
	// doubles it up to BackoffMax (defaults 25ms and 2s). The actual delay
	// is jittered uniformly over [d/2, d).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// AttemptTimeout bounds each individual attempt, distinct from
	// whatever deadline governs the sweep as a whole (default 2m).
	AttemptTimeout time.Duration
	// Replicas is the virtual-node count per backend on the hash ring
	// (default 64).
	Replicas int
	// Seed seeds the backoff jitter (default 1). Jitter only spreads retry
	// timing; no routing or result depends on it.
	Seed int64
}

// WithDefaults returns the configuration with every unset field replaced by
// its default.
func (c Config) WithDefaults() Config {
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 2 * time.Minute
	}
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Pool tracks a fixed set of named backends: their ring placement, health,
// and the fleet-wide retry/failover counters. All methods are safe for
// concurrent use.
type Pool struct {
	cfg   Config
	names []string
	ring  *ring

	mu       sync.Mutex
	rng      *rand.Rand // jitter source, guarded by mu
	backends []backendState

	// The fleet-wide and per-backend counters are obs.Counters so that a
	// metrics registry can render the very objects Stats and Snapshot read —
	// one source of truth, no parallel bookkeeping to drift.
	retries   obs.Counter
	failovers obs.Counter
}

type backendState struct {
	consec  int // consecutive failures since the last success or re-admission
	ejected bool
	load    int // last probed load (queue depth + in-flight), failover preference

	// inFlight counts Do attempts currently running against the backend.
	inFlight     obs.Gauge
	failures     obs.Counter
	successes    obs.Counter
	ejections    obs.Counter
	readmissions obs.Counter
}

// BackendStatus is one backend's health snapshot (the /v1/stats fleet
// section).
type BackendStatus struct {
	Name string `json:"name"`
	Live bool   `json:"live"`
	// ConsecutiveFailures is the current ejection counter; it resets on
	// success or re-admission.
	ConsecutiveFailures int   `json:"consecutive_failures,omitempty"`
	Load                int   `json:"load"`
	Failures            int64 `json:"failures"`
	Successes           int64 `json:"successes"`
	Ejections           int64 `json:"ejections"`
	Readmissions        int64 `json:"readmissions"`
	// InFlight is the number of attempts currently running against the
	// backend (see Pool.InFlight).
	InFlight int64 `json:"in_flight"`
}

// New builds a pool over the named backends.
func New(names []string, cfg Config) *Pool {
	cfg = cfg.WithDefaults()
	return &Pool{
		cfg:      cfg,
		names:    names,
		ring:     newRing(names, cfg.Replicas),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		backends: make([]backendState, len(names)),
	}
}

// Names returns the backend names in pool order.
func (p *Pool) Names() []string { return p.names }

// Order returns key's backend preference order: the home backend first,
// then the ring-walk failover sequence.
func (p *Pool) Order(key string) []int { return p.ring.order(key) }

// Live reports whether backend i is in rotation.
func (p *Pool) Live(i int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.backends[i].ejected
}

// FailSeq returns backend i's failure sequence: the number of failures
// recorded against it so far. An attempt reads it when it starts and hands
// it to Success when it completes.
func (p *Pool) FailSeq(i int) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.backends[i].failures.Value()
}

// Success records a completed attempt against backend i that started at
// failure sequence seq (see FailSeq). It resets the ejection counter only
// if no failure was recorded against the backend since: a slow success
// says nothing about attempts that started after it and failed, so it must
// not un-count them and keep a dead backend in rotation.
func (p *Pool) Success(i int, seq int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := &p.backends[i]
	b.successes.Inc()
	if b.failures.Value() == seq {
		b.consec = 0
	}
}

// Failure records a failed attempt (cell or probe) against backend i and
// reports whether this failure ejected it.
func (p *Pool) Failure(i int) (ejected bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := &p.backends[i]
	b.failures.Inc()
	b.consec++
	if !b.ejected && b.consec >= p.cfg.EjectAfter {
		b.ejected = true
		b.ejections.Inc()
		return true
	}
	return false
}

// Readmit puts an ejected backend back in rotation (a probe succeeded
// against it). Live backends are unaffected.
func (p *Pool) Readmit(i int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := &p.backends[i]
	if b.ejected {
		b.ejected = false
		b.consec = 0
		b.readmissions.Inc()
	}
}

// InFlight returns the number of Do attempts currently running against
// backend i. A failed-over attempt counts against the backend serving it.
func (p *Pool) InFlight(i int) int64 { return p.backends[i].inFlight.Value() }

// SetLoad records backend i's probed load for failover preference.
func (p *Pool) SetLoad(i, load int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.backends[i].load = load
}

// Stats returns the fleet-wide retry and failover counters.
func (p *Pool) Stats() (retries, failovers int64) {
	return p.retries.Value(), p.failovers.Value()
}

// Counters exposes the pool's fleet-wide counters for registration in a
// metrics registry: the registry then renders the same objects Stats
// reads, so the two views cannot drift.
func (p *Pool) Counters() (retries, failovers *obs.Counter) {
	return &p.retries, &p.failovers
}

// BackendCounters exposes backend i's health counters for metric
// registration, in the same single-source spirit as Counters.
func (p *Pool) BackendCounters(i int) (failures, successes, ejections, readmissions *obs.Counter) {
	b := &p.backends[i]
	return &b.failures, &b.successes, &b.ejections, &b.readmissions
}

// Snapshot returns every backend's status, in pool order.
func (p *Pool) Snapshot() []BackendStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]BackendStatus, len(p.backends))
	for i := range p.backends {
		b := &p.backends[i]
		out[i] = BackendStatus{
			Name:                p.names[i],
			Live:                !b.ejected,
			ConsecutiveFailures: b.consec,
			Load:                b.load,
			InFlight:            b.inFlight.Value(),
			Failures:            b.failures.Value(),
			Successes:           b.successes.Value(),
			Ejections:           b.ejections.Value(),
			Readmissions:        b.readmissions.Value(),
		}
	}
	return out
}

// pick chooses the backend for the next attempt: order[0] while it is live
// (the caller chose it), otherwise the least-loaded live backend from the
// rest of order, order breaking ties.
func (p *Pool) pick(order []int) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(order) == 0 {
		return 0, false
	}
	if !p.backends[order[0]].ejected {
		return order[0], true
	}
	best, ok := -1, false
	for _, b := range order[1:] {
		s := &p.backends[b]
		if s.ejected {
			continue
		}
		if !ok || s.load < p.backends[best].load {
			best, ok = b, true
		}
	}
	return best, ok
}

// jitter spreads d uniformly over [d/2, d).
func (p *Pool) jitter(d time.Duration) time.Duration {
	if d < 2 {
		return d
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return d/2 + time.Duration(p.rng.Int63n(int64(d/2)))
}

// backoff sleeps the jittered exponential delay before retry attempt+1,
// abandoning the wait if ctx ends first.
func (p *Pool) backoff(ctx context.Context, attempt int) error {
	d := p.cfg.BackoffBase
	for i := 1; i < attempt && d < p.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > p.cfg.BackoffMax || d <= 0 {
		d = p.cfg.BackoffMax
	}
	t := time.NewTimer(p.jitter(d))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// DoStats describes how one Do call was served.
type DoStats struct {
	// Attempts counts attempts actually made; Retries is Attempts beyond
	// the first.
	Attempts int
	Retries  int
	// FailedOver reports that the call was served away from the backend
	// the caller assigned (order[0]).
	FailedOver bool
	// Backend is the backend that served the call, -1 if none did.
	Backend int
}

// Do runs fn against the backends of order until it succeeds or the retry
// budget is spent. order is the caller's serving order: the backend it
// assigned first, then the failover sequence (for a ring-routed key, a
// permutation of Order(key)). Each attempt runs under its own timeout;
// failed attempts count against the backend's health (ejection included),
// back off exponentially with seeded jitter, and — once order[0] is
// ejected — fail over along the rest of order, preferring idle backends. When
// no backend is live the error matches ErrNoBackends; a cancelled ctx is
// returned as its own error without consuming further budget, and an error
// wrapped by Permanent returns immediately without charging the backend.
// Each attempt counts as in flight against the backend it runs on for as
// long as fn runs (see InFlight).
func Do[T any](ctx context.Context, p *Pool, order []int, fn func(ctx context.Context, backend int) (T, error)) (T, DoStats, error) {
	var zero T
	st := DoStats{Backend: -1}
	var lastErr error
	for attempt := 1; attempt <= p.cfg.RetryBudget; attempt++ {
		if err := ctx.Err(); err != nil {
			return zero, st, err
		}
		b, ok := p.pick(order)
		if !ok {
			if lastErr != nil {
				return zero, st, fmt.Errorf("%w after %d attempts (last: %v)", ErrNoBackends, st.Attempts, lastErr)
			}
			return zero, st, ErrNoBackends
		}
		st.Attempts++
		if attempt > 1 {
			st.Retries++
			p.retries.Add(1)
		}
		if b != order[0] && !st.FailedOver {
			st.FailedOver = true
			p.failovers.Add(1)
		}
		seq := p.FailSeq(b)
		actx, cancel := context.WithTimeout(ctx, p.cfg.AttemptTimeout)
		p.backends[b].inFlight.Add(1)
		v, err := fn(actx, b)
		p.backends[b].inFlight.Add(-1)
		cancel()
		if err == nil {
			p.Success(b, seq)
			st.Backend = b
			return v, st, nil
		}
		if ctx.Err() != nil {
			// The sweep itself ended; the failure is ours, not the backend's.
			return zero, st, ctx.Err()
		}
		if IsPermanent(err) {
			// Deterministic rejection: no backend can serve it, and the
			// backend that said so is healthy.
			st.Backend = b
			return zero, st, err
		}
		lastErr = fmt.Errorf("backend %s: %w", p.names[b], err)
		p.Failure(b)
		if attempt < p.cfg.RetryBudget {
			if err := p.backoff(ctx, attempt); err != nil {
				return zero, st, err
			}
		}
	}
	return zero, st, fmt.Errorf("fleet: retry budget (%d attempts) spent: %w", p.cfg.RetryBudget, lastErr)
}

// ProbeOnce probes every backend once, sequentially: a succeeding probe
// records the reported load and re-admits the backend if it was ejected; a
// failing probe counts against its health like a failed cell.
func (p *Pool) ProbeOnce(ctx context.Context, probe func(ctx context.Context, backend int) (load int, err error)) {
	for i := range p.names {
		if ctx.Err() != nil {
			return
		}
		load, err := probe(ctx, i)
		if err != nil {
			p.Failure(i)
			continue
		}
		p.SetLoad(i, load)
		p.Readmit(i)
	}
}

// ProbeLoop runs ProbeOnce every interval until ctx ends. An interval <= 0
// disables probing (the loop returns immediately).
func (p *Pool) ProbeLoop(ctx context.Context, interval time.Duration, probe func(ctx context.Context, backend int) (load int, err error)) {
	if interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.ProbeOnce(ctx, probe)
		}
	}
}
