package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"preexec"
	"preexec/internal/fleet"
	"preexec/internal/obs"
)

// FleetConfig tunes coordinator mode (enabled by WithBackends). The zero
// value selects every default.
type FleetConfig struct {
	// Fleet holds the retry, backoff, ejection, and per-attempt timeout
	// parameters (see fleet.Config; zero fields take the fleet defaults).
	Fleet fleet.Config
	// ProbeInterval is the period of the background health probe against
	// each backend's /v1/stats (0 = 2s). A negative interval disables
	// probing entirely: ejected backends are then never re-admitted, which
	// is what deterministic tests want.
	ProbeInterval time.Duration
	// Client performs the backend HTTP requests (nil = a dedicated default
	// client).
	Client *http.Client
}

const (
	defaultProbeInterval = 2 * time.Second
	// probeTimeout bounds one health probe independently of the loop
	// period, so a black-holing backend cannot stall the probe cycle.
	probeTimeout = 5 * time.Second
	// remoteBodyLimit bounds how much of a backend response the coordinator
	// will buffer; a single-cell SweepResult is a few KB.
	remoteBodyLimit = 16 << 20
)

// coordinator fans /v1/sweep grids out across backend preexecds. Each cell
// is routed by its stage-cache identity on a consistent-hash ring, so every
// base timing run and profile lands on exactly one backend's StageCache; the
// fleet package supplies retry, backoff, health ejection, and failover, and
// an all-backends-dead sweep degrades to local evaluation through the
// coordinator's own cache. Results merge in deterministic grid order and are
// bit-identical to a single-node run — the cross-node extension of the
// golden-test discipline.
type coordinator struct {
	srv           *Server
	pool          *fleet.Pool
	addrs         []string // normalized backend base URLs = pool names
	client        *http.Client
	probeInterval time.Duration
	stopProbe     context.CancelFunc
	probeDone     chan struct{}

	// remoteCells and localFallbacks are obs counters so the metrics
	// registry renders the very objects /v1/stats reads (registerFleet
	// registers them by reference).
	remoteCells    obs.Counter
	localFallbacks obs.Counter
}

func newCoordinator(s *Server, backends []string, fc FleetConfig) *coordinator {
	addrs := make([]string, len(backends))
	for i, b := range backends {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if !strings.Contains(b, "://") {
			b = "http://" + b
		}
		addrs[i] = b
	}
	client := fc.Client
	if client == nil {
		client = &http.Client{}
	}
	interval := fc.ProbeInterval
	if interval == 0 {
		interval = defaultProbeInterval
	}
	c := &coordinator{
		srv:           s,
		pool:          fleet.New(addrs, fc.Fleet),
		addrs:         addrs,
		client:        client,
		probeInterval: interval,
		probeDone:     make(chan struct{}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.stopProbe = cancel
	go func() {
		defer close(c.probeDone)
		c.pool.ProbeLoop(ctx, c.probeInterval, c.probe)
	}()
	return c
}

// close stops the probe loop and waits for it to exit.
func (c *coordinator) close() {
	c.stopProbe()
	<-c.probeDone
}

// probe is the health check: a backend is healthy when its /v1/stats
// answers with a decodable body. The reported load — simulation-gate
// in-flight plus queued — orders failover preference toward idle backends.
func (c *coordinator) probe(ctx context.Context, backend int) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.addrs[backend]+"/v1/stats", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("probe: status %d", resp.StatusCode)
	}
	var st struct {
		Gate struct {
			InFlight int   `json:"in_flight"`
			Queued   int64 `json:"queued"`
		} `json:"gate"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	return st.Gate.InFlight + int(st.Gate.Queued), nil
}

// routeKey joins a cell's base and profile stage keys: cells sharing all
// their stage work land on one backend's cache together. A trace can serve
// several base groups, which may then record it on several backends; the
// merged counters model the single-node cache regardless. The keys come
// from preexec.StageKeys, the single shared key source, so routing identity
// cannot drift from local memoization: program pointers cannot cross
// processes, so (benchmark name, scale) stands in for the program identity
// — servers build programs once per (workload, scale), so the substitution
// is exact.
func routeKey(ks preexec.StageKeySet) string { return ks.Base + "\x00" + ks.Profile }

// coordCell is one grid cell as the coordinator schedules it.
type coordCell struct {
	bench string
	point string
	scale int
	// raw is the point's submitted config fragment, forwarded verbatim so
	// the backend decodes it exactly as a direct client would.
	raw json.RawMessage
	// cfg is the decoded configuration, for the local-fallback engine.
	cfg      preexec.Config
	prog     *preexec.Program
	routeKey string // see routeKey
}

// sweep evaluates the grid across the fleet and merges the result in grid
// order. raws aligns with points (the submitted config fragments; nil for
// the implicit default point). The merged CacheStats are modeled, not
// summed — exactly the counters a fresh single-node cache and replay memo
// report. BaseRuns is the number of distinct base-stage groups in the grid
// and BaseHits the cells beyond the first of each group (likewise
// profiles), plus one per cell whose merged report selected nothing: that
// cell's pre-execution run is its base run. The other cells' pre-execution
// runs group by preexec.ReplayKey: ReplayRuns is the number of groups and
// ReplayHits the cells beyond the first of each. Each base run and each
// replay looks its trace up once; TraceRuns is the number of distinct trace
// keys and TraceHits the remaining lookups, BaseRuns+ReplayRuns-TraceRuns.
// Summing backend deltas would drift under faults (a truncated response
// loses a counted run, a retry recounts one), silently breaking
// byte-identity with the single-node golden.
func (c *coordinator) sweep(ctx context.Context, benches []preexec.SweepBench, points []preexec.ConfigPoint, raws []json.RawMessage, scale, workers int, progress func(preexec.SuiteEvent)) (*preexec.SweepResult, error) {
	cells := make([]coordCell, 0, len(benches)*len(points))
	baseGroups := make(map[string]bool)
	profGroups := make(map[string]bool)
	traceGroups := make(map[string]bool)
	for _, b := range benches {
		name := b.Name
		if name == "" {
			name = b.Program.Name
		}
		for pi, pt := range points {
			ks := preexec.StageKeys(name, scale, pt.Config)
			baseGroups[ks.Base] = true
			profGroups[ks.Profile] = true
			traceGroups[ks.Trace] = true
			cells = append(cells, coordCell{
				bench:    name,
				point:    pt.Name,
				scale:    scale,
				raw:      raws[pi],
				cfg:      pt.Config,
				prog:     b.Program,
				routeKey: routeKey(ks),
			})
		}
	}

	res := &preexec.SweepResult{Cells: make([]preexec.SweepCell, len(cells))}
	for i, cl := range cells {
		res.Cells[i] = preexec.SweepCell{Bench: cl.bench, Point: cl.point, Err: preexec.ErrJobNotRun}
	}
	res.Cache = preexec.CacheStats{
		BaseRuns:    int64(len(baseGroups)),
		BaseHits:    int64(len(cells) - len(baseGroups)),
		ProfileRuns: int64(len(profGroups)),
		ProfileHits: int64(len(cells) - len(profGroups)),
		TraceRuns:   int64(len(traceGroups)),
	}

	var (
		mu   sync.Mutex // guards done and progress calls
		done int
	)
	err := preexec.ParallelEach(ctx, workers, len(cells), func(ctx context.Context, i int) error {
		rep, err := c.runCell(ctx, cells[i])
		if err == nil {
			res.Cells[i].Report = rep
		}
		res.Cells[i].Err = err
		mu.Lock()
		done++
		if progress != nil {
			ev := preexec.SuiteEvent{Index: i, Total: len(cells), Done: done, Name: cells[i].bench + "/" + cells[i].point, Err: err}
			if err == nil {
				ev.Report = &res.Cells[i].Report
			}
			//lint:ignore lockscope progress is documented as serialized (the Suite.Progress contract); the mutex provides exactly that, and the callback must not call back into the coordinator.
			progress(ev)
		}
		mu.Unlock()
		return err
	})
	replayGroups := make(map[string]bool)
	for i, cl := range cells {
		if res.Cells[i].Err != nil {
			continue
		}
		switch k := preexec.ReplayKey(cl.bench, cl.scale, cl.cfg, res.Cells[i].Report.PThreads); {
		case k == "":
			res.Cache.BaseHits++
		case replayGroups[k]:
			res.Cache.ReplayHits++
		default:
			replayGroups[k] = true
			res.Cache.ReplayRuns++
		}
	}
	res.Cache.TraceHits = res.Cache.BaseRuns + res.Cache.ReplayRuns - res.Cache.TraceRuns
	return res, err
}

// runCell evaluates one cell: remotely on its home backend with retry,
// backoff, and failover; locally through the coordinator's own engine and
// StageCache when no backend is live (graceful degradation) or when the
// fleet deterministically rejected the cell (e.g. a workload registered
// only on the coordinator).
//
// When the request carries recording trace context, the cell's scheduling
// unfolds as spans: one "route" span per cell, one "forward" child per
// remote attempt (the attempt's backend as an attribute, its span ID
// propagated in the X-Preexec-Trace header so the backend's own spans
// stitch underneath), and a "local-fallback" child when the coordinator
// evaluates the cell itself. With tracing off every span below is nil and
// each call a no-op.
func (c *coordinator) runCell(ctx context.Context, cell coordCell) (preexec.Report, error) {
	tc := obs.TraceFrom(ctx)
	if !tc.Record {
		tc.Trace = ""
	}
	tr := c.srv.obs.tracer
	route := tr.StartSpan(tc.Trace, tc.Parent, "route")
	route.SetAttr("cell", cell.bench+"/"+cell.point)
	defer route.End()
	rep, st, err := fleet.Do(ctx, c.pool, cell.routeKey, func(ctx context.Context, backend int) (preexec.Report, error) {
		fw := tr.StartSpan(tc.Trace, route.SpanID(), "forward")
		fw.SetAttr("backend", c.addrs[backend])
		var hdr string
		if tc.Trace != "" {
			hdr = obs.FormatTraceHeader(tc.Trace, fw.SpanID())
		}
		rep, err := c.remoteCell(ctx, backend, cell, hdr)
		if err != nil {
			fw.SetAttr("error", err.Error())
		}
		fw.End()
		return rep, err
	})
	route.SetAttr("attempts", obs.AttrInt(st.Attempts))
	if st.FailedOver {
		route.SetAttr("failed_over", "true")
	}
	switch {
	case err == nil:
		c.remoteCells.Inc()
		return rep, nil
	case errors.Is(err, fleet.ErrNoBackends), fleet.IsPermanent(err):
		c.localFallbacks.Inc()
		lf := tr.StartSpan(tc.Trace, route.SpanID(), "local-fallback")
		defer lf.End()
		return c.srv.engine(cell.cfg).Evaluate(ctx, cell.prog)
	default:
		return preexec.Report{}, err
	}
}

// collectSpans stitches a cross-node trace after a traced sweep: each
// backend's /v1/spans is queried for the trace and its spans imported into
// the coordinator's tracer tagged with the backend address. Best effort — a
// dead backend simply contributes no spans (its cells' forward spans carry
// the error already).
func (c *coordinator) collectSpans(ctx context.Context, trace string) {
	for _, addr := range c.addrs {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/spans?trace="+trace, nil)
		if err != nil {
			continue
		}
		resp, err := c.client.Do(req)
		if err != nil {
			continue
		}
		spans, _ := obs.ReadNDJSON(io.LimitReader(resp.Body, remoteBodyLimit))
		resp.Body.Close()
		for _, sp := range spans {
			if sp.Trace != trace {
				continue
			}
			sp.Node = addr
			c.srv.obs.tracer.Import(sp)
		}
	}
}

// remoteCell runs one cell on one backend as a single-cell /v1/sweep and
// validates the payload hard: a short, garbled, or mislabeled response is an
// ordinary retryable failure, never a value. Only a decodable 4xx rejection
// is permanent — it is the request's own fault and retrying elsewhere
// cannot change it. traceHdr, when non-empty, is the X-Preexec-Trace value
// linking the backend's spans under this attempt's forward span.
func (c *coordinator) remoteCell(ctx context.Context, backend int, cell coordCell, traceHdr string) (preexec.Report, error) {
	var zero preexec.Report
	body, err := json.Marshal(struct {
		Benches []string     `json:"benches"`
		Scale   int          `json:"scale,omitempty"`
		Points  []sweepPoint `json:"points"`
		Workers int          `json:"workers"`
	}{
		Benches: []string{cell.bench},
		Scale:   cell.scale,
		Points:  []sweepPoint{{Name: cell.point, Config: cell.raw}},
		Workers: 1,
	})
	if err != nil {
		return zero, fleet.Permanent(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.addrs[backend]+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return zero, fleet.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceHdr != "" {
		req.Header.Set(obs.TraceHeader, traceHdr)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return zero, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, remoteBodyLimit))
	if err != nil {
		return zero, fmt.Errorf("cell %s/%s: reading response: %w", cell.bench, cell.point, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := fmt.Errorf("cell %s/%s: backend status %d: %.200s", cell.bench, cell.point, resp.StatusCode, raw)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && json.Valid(raw) {
			return zero, fleet.Permanent(msg)
		}
		return zero, msg
	}
	var remote struct {
		Cells []struct {
			Bench  string         `json:"bench"`
			Point  string         `json:"point"`
			Report preexec.Report `json:"report"`
			Error  string         `json:"error"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(raw, &remote); err != nil {
		return zero, fmt.Errorf("cell %s/%s: garbled response: %w", cell.bench, cell.point, err)
	}
	if len(remote.Cells) != 1 {
		return zero, fmt.Errorf("cell %s/%s: backend returned %d cells, want 1", cell.bench, cell.point, len(remote.Cells))
	}
	rc := remote.Cells[0]
	if rc.Bench != cell.bench || rc.Point != cell.point {
		return zero, fmt.Errorf("cell %s/%s: backend returned cell %s/%s", cell.bench, cell.point, rc.Bench, rc.Point)
	}
	if rc.Error != "" {
		// The grid was validated before fan-out, so a per-cell failure under
		// a valid configuration is backend trouble (a draining or saturated
		// node), not a property of the cell: retryable.
		return zero, fmt.Errorf("cell %s/%s: backend cell error: %s", cell.bench, cell.point, rc.Error)
	}
	if rc.Report.Program == "" || rc.Report.Base.Retired == 0 {
		return zero, fmt.Errorf("cell %s/%s: backend returned an empty report", cell.bench, cell.point)
	}
	return rc.Report, nil
}

// fleetStats is the coordinator section of /v1/stats.
type fleetStats struct {
	// Backends is each backend's health, in -backends order.
	Backends []fleet.BackendStatus `json:"backends"`
	// Retries counts remote cell attempts beyond each cell's first;
	// Failovers counts cells served away from their home backend.
	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers"`
	// RemoteCells counts cells completed on a backend; LocalFallbacks
	// counts cells the coordinator evaluated itself.
	RemoteCells    int64 `json:"remote_cells"`
	LocalFallbacks int64 `json:"local_fallbacks"`
}

func (c *coordinator) stats() *fleetStats {
	retries, failovers := c.pool.Stats()
	return &fleetStats{
		Backends:       c.pool.Snapshot(),
		Retries:        retries,
		Failovers:      failovers,
		RemoteCells:    c.remoteCells.Value(),
		LocalFallbacks: c.localFallbacks.Value(),
	}
}
