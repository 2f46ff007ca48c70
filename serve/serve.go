// Package serve exposes the pre-execution evaluation pipeline as a
// long-running HTTP/JSON service — the scaling layer that lets many clients
// share one process, one workload registry, and one StageCache instead of
// each linking the library and paying cold-start per process.
//
// Endpoints (all JSON unless noted):
//
//	GET  /v1/workloads   registry listing: benchmarks + synth families
//	POST /v1/workloads   upload a .prx source or synth.Spec, register it
//	POST /v1/evaluate    one benchmark x one configuration -> Report
//	POST /v1/sweep       grid request -> SweepResult (JSON or CSV; optional
//	                     NDJSON progress stream)
//	GET  /v1/stats       cache + request + single-flight counters
//	GET  /v1/spans       one trace's recorded spans as NDJSON
//	GET  /metrics        the same counters in Prometheus text format
//
// The scheduling core layers three mechanisms over the library:
//
//   - Request coalescing: identical in-flight /v1/evaluate requests are
//     single-flighted above the StageCache by a memo that retains nothing
//     (internal/memo), so N concurrent clients asking for the same cell
//     cost one full evaluation.
//   - Stage memoization: all requests share one StageCache, and programs are
//     built once per (workload, scale) — single-flighted and retained by
//     the same memo, LRU-bounded — and reused by pointer, so the cache's
//     program-identity keys hit across requests. N sequential identical
//     evaluations still perform exactly one base timing run and one profile.
//   - Bounded compute: the expensive stages (timing simulation, functional
//     profiling) of every request pass through one server-wide worker gate,
//     so request count bounds neither simulator concurrency nor memory.
//
// Per-request contexts propagate into the simulation hot loops: a client
// disconnect cancels its evaluation promptly. A cancelled computation is
// returned only to the client that owned it; coalesced waiters retry.
package serve

import (
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"preexec"
	"preexec/internal/memo"
	"preexec/internal/obs"
)

// defaultMaxBody bounds request bodies (a generated .prx for a 4M-word
// footprint disassembles to tens of MB; anything bigger is abuse and is
// answered 413).
const defaultMaxBody = 64 << 20

// uploadLimit caps the run-time workload registrations a server accepts
// over POST /v1/workloads. The registry is process-global and every entry
// pins its program forever, so the HTTP surface — unlike a trusted embedder
// using the library — must bound it (429 beyond the cap).
const uploadLimit = 256

// Server is the evaluation service. Build one with New; it serves HTTP via
// its Handler (or directly: *Server implements http.Handler).
type Server struct {
	workers int
	maxBody int64

	cache      *preexec.StageCache
	cacheLimit int

	// base carries the worker gate and the stage observer into Sweep.Plan.
	base *preexec.Engine

	// flights coalesces identical in-flight evaluate requests; it retains
	// nothing once a flight lands.
	flights *memo.Map[string, preexec.Report]

	// gate is the server-wide worker pool every expensive unit — timing
	// runs, profiles, program builds — passes through.
	gate *gate

	// programs holds the benchmarks built so far, keyed by (canonical name,
	// scale), LRU-bounded to programCacheLimit entries. Pointer-stable
	// programs are what make the StageCache hit across requests. Entries
	// are never invalidated by name: the HTTP surface can only add registry
	// names (uploads reject duplicates), so a cached program can never
	// belong to a name that since changed meaning. Embedders sharing the
	// process must honour the same invariant — re-binding a name via
	// preexec.UnregisterWorkload + RegisterWorkload while a Server is live
	// would serve the old program until LRU pressure evicts it; start a new
	// Server (they are cheap) after re-binding instead.
	programs *memo.Map[progKey, preexec.SweepBench]

	uploads atomic.Int64

	// obs bundles the metrics registry, tracer, and stage-latency
	// histograms behind GET /metrics, /v1/spans, and /v1/stats.
	obs *serverObs

	// Coordinator mode (WithBackends): /v1/sweep fans out across backend
	// preexecds instead of evaluating locally; every other endpoint still
	// serves locally, which is also the sweep's graceful-degradation path.
	backendAddrs []string
	fleetCfg     FleetConfig
	coord        *coordinator
	closeOnce    sync.Once

	mux *http.ServeMux
}

// Option customizes a Server.
type Option func(*Server)

// WithWorkers bounds the server-wide concurrency of the expensive pipeline
// stages (<= 0 = GOMAXPROCS). Every evaluate request and sweep cell acquires
// a slot around each timing run or profile, so the bound holds regardless of
// how many requests are in flight.
func WithWorkers(n int) Option { return func(s *Server) { s.workers = n } }

// WithCacheLimit bounds the server's StageCache to n entries per stage via
// the LRU policy of preexec.WithStageCacheLimit (<= 0 = unlimited, the
// default).
func WithCacheLimit(n int) Option { return func(s *Server) { s.cacheLimit = n } }

// WithBackends turns the server into a sweep coordinator over the given
// backend preexecd addresses (host:port or full base URLs): /v1/sweep cells
// are consistent-hashed by their stage-cache identity across the fleet,
// retried with backoff on failure, failed over from ejected backends, and
// merged in deterministic grid order — byte-identical to a single-node run.
// Call Server.Close when done to stop the background health probe.
func WithBackends(addrs ...string) Option {
	return func(s *Server) { s.backendAddrs = addrs }
}

// WithFleetConfig tunes coordinator mode (ignored without WithBackends).
func WithFleetConfig(fc FleetConfig) Option {
	return func(s *Server) { s.fleetCfg = fc }
}

// New builds a Server ready to serve.
func New(opts ...Option) *Server {
	s := &Server{
		workers:  runtime.GOMAXPROCS(0),
		maxBody:  defaultMaxBody,
		flights:  memo.New[string, preexec.Report](memo.None),
		programs: memo.New[progKey, preexec.SweepBench](memo.LRU(programCacheLimit)),
	}
	for _, o := range opts {
		o(s)
	}
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	s.cache = preexec.NewStageCache(preexec.WithStageCacheLimit(s.cacheLimit))
	s.gate = newGate(s.workers)
	s.obs = newServerObs(s)
	s.base = preexec.New(preexec.WithStageGate(s.gate), preexec.WithStageObserver(s.obs))
	if len(s.backendAddrs) > 0 {
		s.coord = newCoordinator(s, s.backendAddrs, s.fleetCfg)
		s.obs.registerFleet(s.coord)
	}

	// One route table drives both the mux registrations and the catch-all's
	// 405 map, so the two can never drift apart.
	routes := []struct {
		method, path string
		handler      http.HandlerFunc
	}{
		{"GET", "/v1/workloads", s.handleWorkloadsList},
		{"POST", "/v1/workloads", s.handleWorkloadsUpload},
		{"POST", "/v1/evaluate", s.handleEvaluate},
		{"POST", "/v1/sweep", s.handleSweep},
		{"GET", "/v1/stats", s.handleStats},
		{"GET", "/v1/spans", s.handleSpans},
		{"GET", "/metrics", s.handleMetrics},
	}
	s.mux = http.NewServeMux()
	allowed := make(map[string]string)
	for _, rt := range routes {
		s.mux.HandleFunc(rt.method+" "+rt.path, rt.handler)
		if allowed[rt.path] != "" {
			allowed[rt.path] += ", "
		}
		allowed[rt.path] += rt.method
	}
	// The catch-all keeps errors JSON. It sees wrong-method requests to real
	// endpoints too (the "/" pattern matches every method), so it answers
	// those with 405 + Allow rather than a misleading 404.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if allow, ok := allowed[r.URL.Path]; ok {
			w.Header().Set("Allow", allow)
			writeError(w, http.StatusMethodNotAllowed, "%s does not allow %s (allowed: %s)",
				r.URL.Path, r.Method, allow)
			return
		}
		writeError(w, http.StatusNotFound, "no such endpoint %q", r.URL.Path)
	})
	return s
}

// ServeHTTP implements http.Handler. It tracks the in-flight and completed
// request series reported by /v1/stats and /metrics (the in-flight count
// includes the request reading it), and establishes trace context: a valid
// X-Preexec-Trace request header joins the caller's trace (span recording
// on — this is how a coordinator's backends stitch into its trace), anything
// else gets a fresh ID with recording off until an endpoint opts in. The
// trace ID is always echoed on the response header.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.obs.requestsInFlight.Add(1)
	defer func() {
		s.obs.requestsInFlight.Add(-1)
		s.obs.requestsCompleted.Inc()
	}()
	trace, parent := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
	record := trace != ""
	if trace == "" {
		trace = s.obs.tracer.NewTraceID()
	}
	w.Header().Set(obs.TraceHeader, trace)
	ctx := obs.WithTrace(r.Context(), obs.TraceContext{Trace: trace, Parent: parent, Record: record})
	s.mux.ServeHTTP(w, r.WithContext(ctx))
}

// Workers returns the server-wide stage-concurrency bound.
func (s *Server) Workers() int { return s.workers }

// Close releases the server's background resources — the coordinator's
// health-probe loop. It is a no-op for non-coordinator servers and safe to
// call more than once; the HTTP surface itself holds no resources to close.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.coord != nil {
			s.coord.close()
		}
	})
}

// Cache returns the server's shared stage cache.
func (s *Server) Cache() *preexec.StageCache { return s.cache }

// engine builds the per-request engine: the submitted configuration over
// the shared stage cache, admitted through the worker gate.
func (s *Server) engine(cfg preexec.Config) *preexec.Engine {
	return preexec.New(
		preexec.WithConfig(cfg),
		preexec.WithStageCache(s.cache),
		preexec.WithStageGate(s.gate),
		preexec.WithStageObserver(s.obs),
	)
}
