package serve

import (
	"net/http"

	"preexec"
)

// statsResponse is the GET /v1/stats body: the shared cache's counters plus
// the request and single-flight gauges.
type statsResponse struct {
	// Cache is the shared StageCache's cumulative hit/run/eviction counters.
	Cache preexec.CacheStats `json:"cache"`
	// CacheEntries is the entry count currently held per stage (bounded by
	// the configured cache limit, if any).
	CacheEntries struct {
		Base    int `json:"base"`
		Profile int `json:"profile"`
		Trace   int `json:"trace"`
	} `json:"cache_entries"`
	// Requests gauges HTTP traffic; InFlight includes the stats request
	// reporting it.
	Requests struct {
		InFlight  int64 `json:"in_flight"`
		Completed int64 `json:"completed"`
	} `json:"requests"`
	// Flights counts the evaluate endpoint's request coalescing: Started is
	// evaluations actually computed, Coalesced is requests served by another
	// request's in-flight evaluation, Waiting gauges requests currently
	// blocked on one.
	Flights struct {
		Started   int64 `json:"started"`
		Coalesced int64 `json:"coalesced"`
		Waiting   int64 `json:"waiting"`
	} `json:"flights"`
	// ProgramsCached counts the (workload, scale) programs held for
	// cross-request cache identity, builds in flight included.
	ProgramsCached int `json:"programs_cached"`
	// Workloads is the registry size (builtins + run-time registrations).
	Workloads int `json:"workloads"`
	// Workers is the server-wide stage-concurrency bound.
	Workers int `json:"workers"`
	// Gate is the simulation gate's saturation: slots held by running
	// stages and stages queued behind them. A sweep coordinator's health
	// probe reads this to prefer idle backends for failover.
	Gate struct {
		Workers  int   `json:"workers"`
		InFlight int   `json:"in_flight"`
		Queued   int64 `json:"queued"`
	} `json:"gate"`
	// Fleet is present only in coordinator mode: per-backend health plus
	// the retry, failover, and fallback counters.
	Fleet *fleetStats `json:"fleet,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp statsResponse
	resp.Cache = s.cache.Stats()
	resp.CacheEntries.Base, resp.CacheEntries.Profile, resp.CacheEntries.Trace = s.cache.Len()
	resp.Requests.InFlight = s.obs.requestsInFlight.Value()
	resp.Requests.Completed = s.obs.requestsCompleted.Value()
	flights := s.flights.Stats()
	resp.Flights.Started, resp.Flights.Coalesced, resp.Flights.Waiting = flights.Runs, flights.Hits, flights.Waiting
	resp.ProgramsCached = s.programs.Len()
	resp.Workloads = len(preexec.WorkloadNames())
	resp.Workers = s.workers
	resp.Gate.Workers = s.workers
	resp.Gate.InFlight = s.gate.inFlight()
	resp.Gate.Queued = s.gate.queueDepth()
	if s.coord != nil {
		resp.Fleet = s.coord.stats()
	}
	writeJSON(w, http.StatusOK, resp)
}
