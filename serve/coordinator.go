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
// is homed by its program's trace key on a consistent-hash ring, so the
// recording, profiling pass, base runs and replays that read one trace land
// on one backend's StageCache; a backend that runs out of home cells steals
// queued ones from the tail of the longest queue (see dispatch). The fleet
// package supplies retry, backoff, health ejection, and failover, and
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

// routeKey is a cell's trace key, the recording of its program that its
// base run, profiling pass and replay all read: every cell sharing that
// work has one home backend. Only a steal (see dispatch) or a failover
// serves a cell elsewhere; the merged counters model the single-node cache
// regardless. The key comes from preexec.StageKeys, the single shared key
// source, so routing identity cannot drift from local memoization: program
// pointers cannot cross processes, so (benchmark name, scale) stands in for
// the program identity — servers build programs once per (workload, scale),
// so the substitution is exact.
func routeKey(ks preexec.StageKeySet) string { return ks.Trace }

// coordCell is one grid cell as the coordinator schedules it.
type coordCell struct {
	bench string
	point string
	scale int
	// raw is the point's submitted config fragment, forwarded verbatim so
	// the backend decodes it exactly as a direct client would.
	raw json.RawMessage
	// cfg is the decoded configuration, for the local-fallback engine.
	cfg  preexec.Config
	prog *preexec.Program
	// ring is the cell's backend preference order for its routeKey: its
	// home backend first, then the failover sequence.
	ring []int
}

// sweep evaluates the grid across the fleet and merges the result in grid
// order. Up to workers cells run at once, one per slot; each slot takes its
// next cell and the backend to serve it by backend load (see dispatch), so
// no slot forwards to a busy backend while another live backend idles.
// Progress events still carry each cell's grid index. raws aligns with
// points (the submitted config fragments; nil for the implicit default
// point). The merged CacheStats are modeled, not summed — exactly the
// counters a fresh single-node cache and replay memo report. BaseRuns is the
// number of distinct base-stage groups in the grid and BaseHits the cells
// beyond the first of each group (likewise profiles), plus one per cell
// whose merged report selected nothing: that cell's pre-execution run is its
// base run. The other cells' pre-execution runs group by preexec.ReplayKey:
// ReplayRuns is the number of groups and ReplayHits the cells beyond the
// first of each. Each base run, each replay and each profiling pass (one per
// distinct ProfilePass key) looks its trace up once; TraceRuns is the number
// of distinct trace keys, the profiles' included, and TraceHits the
// remaining lookups, BaseRuns+ReplayRuns+passes-TraceRuns.
// Summing backend deltas would drift under faults (a truncated response
// loses a counted run, a retry recounts one), silently breaking
// byte-identity with the single-node golden.
func (c *coordinator) sweep(ctx context.Context, benches []preexec.SweepBench, points []preexec.ConfigPoint, raws []json.RawMessage, scale, workers int, progress func(preexec.SuiteEvent)) (*preexec.SweepResult, error) {
	cells := make([]coordCell, 0, len(benches)*len(points))
	baseGroups := make(map[string]bool)
	profGroups := make(map[string]bool)
	passGroups := make(map[string]bool)
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
			passGroups[ks.ProfilePass] = true
			traceGroups[ks.Trace] = true
			traceGroups[ks.ProfileTrace] = true
			cells = append(cells, coordCell{
				bench: name,
				point: pt.Name,
				scale: scale,
				raw:   raws[pi],
				cfg:   pt.Config,
				prog:  b.Program,
				ring:  c.pool.Order(routeKey(ks)),
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
	homes := make([]int, len(cells))
	for i, cl := range cells {
		homes[i] = cl.ring[0]
	}
	d := newDispatch(c.pool, homes)
	err := preexec.ParallelEach(ctx, workers, len(cells), func(ctx context.Context, _ int) error {
		i, backend := d.take()
		rep, err := c.runCell(ctx, cells[i], backend, func() { d.started(i) })
		d.started(i)
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
	res.Cache.TraceHits = res.Cache.BaseRuns + res.Cache.ReplayRuns + int64(len(passGroups)) - res.Cache.TraceRuns
	return res, err
}

// dispatch hands a sweep's cells to its slots, each with the backend to
// serve it. Each backend has a queue of its home cells in grid order. A free
// slot serves on the live backend with the fewest forwards in flight,
// preferring on ties one that still has home cells queued, then the lowest
// index. That backend takes the front of its own queue; only when its queue
// is empty does it steal from the tail of the longest live queue. Grids are
// benchmark-major, so the tail holds the program the victim is least likely
// to have started. A cell whose home backend is ejected goes to the first
// free slot before any other, and fleet.Do fails it over. A taken cell
// counts against the backend it was assigned from take until its first
// forward starts, when the pool's in-flight count takes over, so two slots
// freed together do not both pick the same idle backend.
type dispatch struct {
	pool *fleet.Pool

	mu      sync.Mutex
	queues  [][]int // per home backend: its untaken cells' grid indices
	claimed []int64 // per backend: cells assigned to it, not yet forwarded
	claim   []int   // per cell: the backend it is claimed against, or -1
}

// newDispatch queues each cell i on its home backend homes[i].
func newDispatch(pool *fleet.Pool, homes []int) *dispatch {
	d := &dispatch{
		pool:    pool,
		queues:  make([][]int, len(pool.Names())),
		claimed: make([]int64, len(pool.Names())),
		claim:   make([]int, len(homes)),
	}
	for i, h := range homes {
		d.queues[h] = append(d.queues[h], i)
		d.claim[i] = -1
	}
	return d
}

// take removes the next cell from a queue and returns its grid index and
// the backend to serve it. Each call must be matched by a cell still queued.
func (d *dispatch) take() (cell, backend int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	backend, victim, best := -1, -1, int64(0)
	for b, q := range d.queues {
		if !d.pool.Live(b) {
			if len(q) > 0 {
				return d.claimFrom(b, 0, b)
			}
			continue
		}
		if load := d.pool.InFlight(b) + d.claimed[b]; backend < 0 || load < best ||
			load == best && len(q) > 0 && len(d.queues[backend]) == 0 {
			backend, best = b, load
		}
		if victim < 0 || len(q) > len(d.queues[victim]) {
			victim = b
		}
	}
	if len(d.queues[backend]) > 0 {
		return d.claimFrom(backend, 0, backend)
	}
	return d.claimFrom(victim, len(d.queues[victim])-1, backend)
}

// claimFrom removes position pos, its front or its tail, of backend q's
// queue and claims that cell against backend b.
func (d *dispatch) claimFrom(q, pos, b int) (cell, backend int) {
	cell = d.queues[q][pos]
	if pos == 0 {
		d.queues[q] = d.queues[q][1:]
	} else {
		d.queues[q] = d.queues[q][:pos]
	}
	d.claimed[b]++
	d.claim[cell] = b
	return cell, b
}

// started ends cell i's claim: its first forward has begun, or it finished
// without one. Later calls are no-ops.
func (d *dispatch) started(i int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if b := d.claim[i]; b >= 0 {
		d.claim[i] = -1
		d.claimed[b]--
	}
}

// runCell evaluates one cell: remotely on backend, the one dispatch
// assigned, with retry, backoff, and failover along the cell's ring walk;
// locally through the coordinator's own engine and StageCache when no
// backend is live (graceful degradation) or when the fleet
// deterministically rejected the cell (e.g. a workload registered only on
// the coordinator).
//
// When the request carries recording trace context, the cell's scheduling
// unfolds as spans: one "route" span per cell, one "forward" child per
// remote attempt (the attempt's backend as an attribute, its span ID
// propagated in the X-Preexec-Trace header so the backend's own spans
// stitch underneath), and a "local-fallback" child when the coordinator
// evaluates the cell itself. With tracing off every span below is nil and
// each call a no-op. forwarding is called as each remote attempt starts.
func (c *coordinator) runCell(ctx context.Context, cell coordCell, backend int, forwarding func()) (preexec.Report, error) {
	tc := obs.TraceFrom(ctx)
	if !tc.Record {
		tc.Trace = ""
	}
	tr := c.srv.obs.tracer
	route := tr.StartSpan(tc.Trace, tc.Parent, "route")
	route.SetAttr("cell", cell.bench+"/"+cell.point)
	defer route.End()
	order := append(make([]int, 0, len(cell.ring)), backend)
	for _, b := range cell.ring {
		if b != backend {
			order = append(order, b)
		}
	}
	rep, st, err := fleet.Do(ctx, c.pool, order, func(ctx context.Context, backend int) (preexec.Report, error) {
		forwarding()
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
	// Failovers counts cells served away from the backend dispatch
	// assigned.
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
