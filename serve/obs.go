package serve

import (
	"net/http"

	"preexec"
	"preexec/internal/obs"
)

// serverObs is the server's observability state: one metrics registry that
// GET /metrics renders and /v1/stats reads, one tracer every span records
// into, and the stage-latency histograms fed through the engine's
// StageObserver hook. All counters the registry renders are the same objects
// the rest of the server mutates — /v1/stats and /metrics cannot drift.
type serverObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	clock  obs.Clock

	requestsInFlight  *obs.Gauge
	requestsCompleted *obs.Counter

	// stage maps stage names to their latency histograms. Read-only after
	// construction, so StageStart needs no lock.
	stage map[string]*obs.Histogram
}

// obsStages are the stage labels carrying latency histograms: the engine
// pipeline stages plus the server's program-build stage.
var obsStages = []string{"build", "base", "profile", "select", "trace", "replay"}

// tracerSeed seeds the span-ID sequence. Trace and span IDs are identity,
// not randomness: a fixed seed keeps them reproducible across runs without
// touching the process random source.
const tracerSeed = 1

func lbl(k, v string) obs.Label { return obs.Label{Key: k, Value: v} }

// newServerObs builds the registry and registers every non-fleet metric.
// The registered closures read the server's own objects lazily at render
// time, so nothing is double-counted.
func newServerObs(s *Server) *serverObs {
	o := &serverObs{
		reg:    obs.NewRegistry(),
		tracer: obs.NewTracer(tracerSeed, obs.SystemClock),
		clock:  obs.SystemClock,
		stage:  make(map[string]*obs.Histogram, len(obsStages)),
	}
	r := o.reg

	for _, st := range obsStages {
		o.stage[st] = r.Histogram("preexec_stage_duration_seconds",
			"Latency of pipeline stage executions; cache hits are never observed.",
			obs.LatencyBuckets, lbl("stage", st))
	}

	cache := func(f func(preexec.CacheStats) int64) func() int64 {
		return func() int64 { return f(s.cache.Stats()) }
	}
	r.CounterFunc("preexec_stage_cache_runs_total",
		"Stage computations actually executed by the shared StageCache.",
		cache(func(c preexec.CacheStats) int64 { return c.BaseRuns }), lbl("stage", "base"))
	r.CounterFunc("preexec_stage_cache_runs_total", "",
		cache(func(c preexec.CacheStats) int64 { return c.ProfileRuns }), lbl("stage", "profile"))
	r.CounterFunc("preexec_stage_cache_runs_total", "",
		cache(func(c preexec.CacheStats) int64 { return c.TraceRuns }), lbl("stage", "trace"))
	r.CounterFunc("preexec_stage_cache_hits_total",
		"Stage requests served from the shared StageCache.",
		cache(func(c preexec.CacheStats) int64 { return c.BaseHits }), lbl("stage", "base"))
	r.CounterFunc("preexec_stage_cache_hits_total", "",
		cache(func(c preexec.CacheStats) int64 { return c.ProfileHits }), lbl("stage", "profile"))
	r.CounterFunc("preexec_stage_cache_hits_total", "",
		cache(func(c preexec.CacheStats) int64 { return c.TraceHits }), lbl("stage", "trace"))
	r.CounterFunc("preexec_stage_cache_evictions_total",
		"Cache entries dropped by the LRU bound (all stages).",
		cache(func(c preexec.CacheStats) int64 { return c.Evictions }))
	r.GaugeFunc("preexec_stage_cache_entries",
		"Cache entries currently held per stage.",
		func() int64 { base, _, _ := s.cache.Len(); return int64(base) }, lbl("stage", "base"))
	r.GaugeFunc("preexec_stage_cache_entries", "",
		func() int64 { _, prof, _ := s.cache.Len(); return int64(prof) }, lbl("stage", "profile"))
	r.GaugeFunc("preexec_stage_cache_entries", "",
		func() int64 { _, _, trace := s.cache.Len(); return int64(trace) }, lbl("stage", "trace"))

	r.CounterFunc("preexec_flights_started_total",
		"Evaluations actually computed by the request-coalescing layer.",
		func() int64 { return s.flights.Stats().Runs })
	r.CounterFunc("preexec_flights_coalesced_total",
		"Requests served by another request's in-flight evaluation.",
		func() int64 { return s.flights.Stats().Hits })
	r.GaugeFunc("preexec_flights_waiting",
		"Requests currently blocked on another request's flight.",
		func() int64 { return s.flights.Stats().Waiting })

	r.GaugeFunc("preexec_gate_workers",
		"Server-wide bound on concurrently running expensive stages.",
		func() int64 { return int64(s.workers) })
	r.GaugeFunc("preexec_gate_in_flight",
		"Expensive stages currently holding a worker slot.",
		func() int64 { return int64(s.gate.inFlight()) })
	r.GaugeFunc("preexec_gate_queued",
		"Stages blocked waiting for a worker slot.",
		s.gate.queueDepth)

	r.GaugeFunc("preexec_programs_cached",
		"Built (workload, scale) programs held for cross-request cache identity.",
		func() int64 { return int64(s.programs.Len()) })
	r.GaugeFunc("preexec_workloads",
		"Registry size: built-in workloads plus run-time registrations.",
		func() int64 { return int64(len(preexec.WorkloadNames())) })
	r.GaugeFunc("preexec_uploads",
		"Run-time workload registrations accepted over POST /v1/workloads.",
		s.uploads.Load)

	o.requestsInFlight = r.Gauge("preexec_requests_in_flight",
		"HTTP requests currently being served (includes the scrape itself).")
	o.requestsCompleted = &obs.Counter{}
	r.RegisterCounter("preexec_requests_completed_total",
		"HTTP requests completed since start.", o.requestsCompleted)

	return o
}

// registerFleet adds coordinator-mode metrics: the fleet pool's own retry,
// failover, and per-backend health counters and in-flight gauges (read from
// the objects the pool mutates, as Snapshot reads them), plus the
// coordinator's remote-cell and local-fallback counters.
func (o *serverObs) registerFleet(c *coordinator) {
	r := o.reg
	retries, failovers := c.pool.Counters()
	r.RegisterCounter("preexec_fleet_retries_total",
		"Remote cell attempts beyond each cell's first.", retries)
	r.RegisterCounter("preexec_fleet_failovers_total",
		"Cells served away from their home backend.", failovers)
	r.RegisterCounter("preexec_fleet_remote_cells_total",
		"Sweep cells completed on a backend.", &c.remoteCells)
	r.RegisterCounter("preexec_fleet_local_fallbacks_total",
		"Sweep cells the coordinator evaluated itself.", &c.localFallbacks)
	for i, addr := range c.addrs {
		failures, successes, ejections, readmissions := c.pool.BackendCounters(i)
		b := lbl("backend", addr)
		r.RegisterCounter("preexec_fleet_backend_failures_total",
			"Failed attempts against the backend.", failures, b)
		r.RegisterCounter("preexec_fleet_backend_successes_total",
			"Successful attempts against the backend.", successes, b)
		r.RegisterCounter("preexec_fleet_backend_ejections_total",
			"Times the backend was ejected for consecutive failures.", ejections, b)
		r.RegisterCounter("preexec_fleet_backend_readmissions_total",
			"Times the health probe re-admitted the backend.", readmissions, b)
		i := i
		r.GaugeFunc("preexec_fleet_backend_live",
			"1 when the backend is currently routable, 0 when ejected.",
			func() int64 {
				if c.pool.Snapshot()[i].Live {
					return 1
				}
				return 0
			}, b)
		r.GaugeFunc("preexec_fleet_backend_load",
			"Backend load as last reported by the health probe.",
			func() int64 { return int64(c.pool.Snapshot()[i].Load) }, b)
		r.GaugeFunc("preexec_fleet_backend_in_flight",
			"Forwards currently running against the backend.",
			func() int64 { return c.pool.InFlight(i) }, b)
	}
}

// noopEnd keeps StageStart allocation-free for unknown stage names.
func noopEnd() {}

// StageStart implements preexec.StageObserver: each stage execution's
// latency lands in the matching histogram. Spans are not recorded here —
// this observer is shared by every request, so per-request span tracing
// installs its own obs.SpanStages alongside (see tracedEngine).
func (o *serverObs) StageStart(stage, bench string) func() {
	h := o.stage[stage]
	if h == nil {
		return noopEnd
	}
	start := o.clock.Now()
	return func() { h.Observe(o.clock.Now().Sub(start)) }
}

// stageFanout forwards stage callbacks to two observers — the server's
// histograms plus a per-request span recorder.
type stageFanout struct {
	a, b preexec.StageObserver
}

func (f stageFanout) StageStart(stage, bench string) func() {
	ea := f.a.StageStart(stage, bench)
	eb := f.b.StageStart(stage, bench)
	return func() { eb(); ea() }
}

// tracedEngine builds a sweep engine, admitted through the worker gate,
// whose observer records per-stage spans under the request's trace in
// addition to feeding the latency histograms.
func (s *Server) tracedEngine(trace, parent string) *preexec.Engine {
	return preexec.New(
		preexec.WithStageGate(s.gate),
		preexec.WithStageObserver(stageFanout{
			a: s.obs,
			b: &obs.SpanStages{Tracer: s.obs.tracer, Trace: trace, Parent: parent},
		}),
	)
}

// handleMetrics serves GET /metrics: the registry in Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obs.reg.WriteText(w)
}

// handleSpans serves GET /v1/spans?trace=<id>: the recorded spans of one
// trace as NDJSON. This is the span side channel — spans never ride in
// response bodies of the deterministic API surface, so traced sweeps stay
// byte-identical; a coordinator stitches cross-node traces by querying this
// endpoint on its backends.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	trace := r.URL.Query().Get("trace")
	if trace == "" {
		writeError(w, http.StatusBadRequest, "trace: required")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = obs.WriteNDJSON(w, s.obs.tracer.Collect(trace))
}
