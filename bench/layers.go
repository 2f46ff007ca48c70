package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"preexec"
	"preexec/internal/obs"
)

// Pipeline stages, in the names the engine's StageObserver and the
// server's /metrics histograms use.
const (
	stBuild = iota
	stProfile
	stSelect
	stBase
	stSim
	stTrace
	stReplay
	numStages
)

var stageNames = [numStages]string{"build", "profile", "select", "base", "sim", "trace", "replay"}

// stageIndex maps a stage name to its index, or -1 for a name the
// benchmark does not know.
func stageIndex(name string) int {
	for i, n := range stageNames {
		if n == name {
			return i
		}
	}
	return -1
}

// windowInsts is the instructions one timing stage simulates: every
// workload runs the default machine's warm-up and measured windows.
func windowInsts() int64 {
	m := preexec.DefaultMachine()
	return m.WarmInsts + m.MeasureInsts
}

// stageTally counts one stage's executions.
type stageTally struct {
	calls, busyNs atomic.Int64
}

// tally accumulates the per-layer observations of one traced measurement.
// The stage observer, the HTTP meters and the /metrics and /v1/stats
// scrapes all add into it.
type tally struct {
	stage [numStages]stageTally

	mu       sync.Mutex
	cache    preexec.CacheStats
	workers  int // stage workers the layers' busy time is shared by
	wall     time.Duration
	requests int
	// rtt and handler are the summed client-observed and in-handler times
	// of HTTP requests (cell forwards, on fleet_sweep).
	rtt, handler time.Duration
	respBytes    int64
	flights      int64
	coalesced    int64
	queued       []int64
	forwards     [2]int
	forwardBusy  time.Duration
	fleetCounts  fleetCounts
}

// fleetCounts are the coordinator's /v1/stats fleet counters.
type fleetCounts struct {
	Retries        int64 `json:"retries"`
	Failovers      int64 `json:"failovers"`
	LocalFallbacks int64 `json:"local_fallbacks"`
}

func (t *tally) addCache(c preexec.CacheStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cache.BaseRuns += c.BaseRuns
	t.cache.BaseHits += c.BaseHits
	t.cache.ProfileRuns += c.ProfileRuns
	t.cache.ProfileHits += c.ProfileHits
	t.cache.TraceRuns += c.TraceRuns
	t.cache.TraceHits += c.TraceHits
	t.cache.Evictions += c.Evictions
}

// tracing is the state of a traced measurement; a nil *tracing is tracing
// off. Spans go to an internal/obs tracer under one trace ID and are
// written as NDJSON when the run ends.
type tracing struct {
	t      *tally
	tracer *obs.Tracer
	trace  string
	// recorded counts the spans started or imported, to detect spans the
	// tracer's bounded buffer dropped.
	recorded atomic.Int64
}

func newTracing(seed uint64, workload string) *tracing {
	tracer := obs.NewTracer(newRand(seed, workload).Uint64(), nil)
	return &tracing{t: &tally{}, tracer: tracer, trace: tracer.NewTraceID()}
}

// start opens a span; it returns nil, a no-op span, when tracing is off.
func (tr *tracing) start(parent, name string) *obs.Span {
	if tr == nil {
		return nil
	}
	tr.recorded.Add(1)
	return tr.tracer.StartSpan(tr.trace, parent, name)
}

// header is the X-Preexec-Trace value that makes sp the parent of the
// receiving handler's spans ("" when tracing is off).
func (tr *tracing) header(sp *obs.Span) string {
	if tr == nil {
		return ""
	}
	return obs.FormatTraceHeader(tr.trace, sp.SpanID())
}

// spans returns every span of the trace, or an error if the tracer's
// buffer dropped some.
func (tr *tracing) spans() ([]obs.Span, error) {
	spans := tr.tracer.Collect(tr.trace)
	if n := tr.recorded.Load(); int64(len(spans)) != n {
		return nil, fmt.Errorf("span buffer overflowed: kept %d of %d spans", len(spans), n)
	}
	return spans, nil
}

// importSpans fetches a server's spans of the trace from /v1/spans and
// records them as the spans of node.
func (tr *tracing) importSpans(ctx context.Context, client *http.Client, base, node string) error {
	x := do(ctx, client, http.MethodGet, base+"/v1/spans?trace="+tr.trace, nil, "")
	if err := x.check("GET /v1/spans"); err != nil {
		return err
	}
	spans, err := obs.ReadNDJSON(bytes.NewReader(x.body))
	if err != nil {
		return fmt.Errorf("GET /v1/spans: %w", err)
	}
	for _, sp := range spans {
		sp.Node = node
		tr.recorded.Add(1)
		tr.tracer.Import(sp)
	}
	return nil
}

// stageMeter is the library sweeps' stage observer in a traced
// repetition: it adds every stage execution to the tally and records it as
// a "stage:<name>" span under the repetition span. The engine calls it
// only for real executions, never for stage-cache hits.
type stageMeter struct {
	tr    *tracing
	spans obs.SpanStages
}

func newStageMeter(tr *tracing, parent *obs.Span) *stageMeter {
	return &stageMeter{tr: tr, spans: obs.SpanStages{Tracer: tr.tracer, Trace: tr.trace, Parent: parent.SpanID()}}
}

func (m *stageMeter) StageStart(stage, bench string) func() {
	st := stageIndex(stage)
	m.tr.recorded.Add(1)
	end := m.spans.StageStart(stage, bench)
	start := time.Now()
	return func() {
		d := time.Since(start)
		end()
		if st >= 0 {
			m.tr.t.stage[st].calls.Add(1)
			m.tr.t.stage[st].busyNs.Add(int64(d))
		}
	}
}

// handlerMeter wraps a server's ServeHTTP. While tracing is on it times
// every request of the traced measurement (one carrying its trace in the
// X-Preexec-Trace header) in the handler and records a handler span; the
// server's own spans, where it records any, go under that span. Otherwise
// it only forwards.
type handlerMeter struct {
	h     http.Handler
	trace atomic.Pointer[tracing]
}

func (m *handlerMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := m.trace.Load()
	trace, parent := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
	if tr == nil || trace != tr.trace {
		m.h.ServeHTTP(w, r)
		return
	}
	sp := tr.start(parent, "handler "+r.URL.Path)
	r = r.Clone(r.Context())
	r.Header.Set(obs.TraceHeader, tr.header(sp))
	start := time.Now()
	m.h.ServeHTTP(w, r)
	d := time.Since(start)
	sp.End()
	tr.t.mu.Lock()
	tr.t.handler += d
	tr.t.mu.Unlock()
}
