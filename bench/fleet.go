package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"preexec"
	"preexec/internal/obs"
	"preexec/internal/sweepio"
	"preexec/serve"
)

// fleetBackends names the coordinator's backends. The names, not the
// listeners' random ports, place backends on the consistent-hash ring, so
// one seed always routes each cell to the same backend.
var fleetBackends = [2]string{"backend-0", "backend-1"}

// sweepRequest is the POST /v1/sweep body.
type sweepRequest struct {
	Benches []string     `json:"benches"`
	Points  []sweepPoint `json:"points"`
	Workers int          `json:"workers"`
}

type sweepPoint struct {
	Name   string         `json:"name"`
	Config preexec.Config `json:"config"`
}

func (in inputs) sweepBody() []byte {
	req := sweepRequest{Benches: in.benches, Workers: loadClients}
	for _, p := range in.points {
		req.Points = append(req.Points, sweepPoint{Name: p.Name, Config: p.Config})
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return b
}

// forwardMeter is the coordinator's HTTP transport: it dials the stable
// backend names to their listeners and times every forward from send to
// the last body byte. Those forwards are fleet_sweep's cells.
type forwardMeter struct {
	base  *http.Transport
	addrs map[string]int // backend name -> index
	hosts [2]string      // backend index -> listener host:port
	// trace is set for a traced repetition: the tracing state, and the
	// sweep request span the forward spans belong to.
	trace atomic.Pointer[forwardTrace]

	mu        sync.Mutex
	latencies []float64
	forwards  [2]int
	busy      time.Duration
}

type forwardTrace struct {
	*tracing
	parent *obs.Span
}

// RoundTrip forwards one cell. In a traced repetition it records a
// "forward" span and sends it as the X-Preexec-Trace parent, so the
// backend records its own spans of the cell under it. The coordinator
// itself is not traced.
func (m *forwardMeter) RoundTrip(req *http.Request) (*http.Response, error) {
	b, ok := m.addrs[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("forward to unknown backend %q", req.URL.Host)
	}
	out := req.Clone(req.Context())
	out.URL.Host = m.hosts[b]
	var sp *obs.Span
	if ft := m.trace.Load(); ft != nil {
		sp = ft.start(ft.parent.SpanID(), "forward")
		sp.SetAttr("backend", fleetBackends[b])
		out.Header.Set(obs.TraceHeader, ft.header(sp))
	}
	start := time.Now()
	resp, err := m.base.RoundTrip(out)
	if err != nil {
		m.done(b, sp, start)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { m.done(b, sp, start) }}
	return resp, nil
}

func (m *forwardMeter) done(backend int, sp *obs.Span, start time.Time) {
	d := time.Since(start)
	sp.End()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.latencies = append(m.latencies, ms(d))
	m.forwards[backend]++
	m.busy += d
}

// timedBody calls done once, at the body's end or close, whichever is
// first.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// fleet is a coordinator over two single-worker backends, all in process
// and on loopback listeners.
type fleet struct {
	backends [2]*serve.Server
	meters   [2]*handlerMeter
	bhs      [2]*httptest.Server
	coord    *serve.Server
	chs      *httptest.Server
	fwd      *forwardMeter
}

func startFleet(ctx context.Context, client *http.Client, in inputs) (*fleet, error) {
	f := &fleet{fwd: &forwardMeter{base: &http.Transport{}, addrs: make(map[string]int)}}
	urls := make([]string, len(fleetBackends))
	for i, name := range fleetBackends {
		f.backends[i] = serve.New(serve.WithWorkers(1))
		f.meters[i] = &handlerMeter{h: f.backends[i]}
		f.bhs[i] = httptest.NewServer(f.meters[i])
		f.fwd.addrs[name] = i
		f.fwd.hosts[i] = strings.TrimPrefix(f.bhs[i].URL, "http://")
		urls[i] = "http://" + name
	}
	// Probing off: the benchmark's backends never fail, and a probe would
	// be traffic no cell asked for.
	f.coord = serve.New(serve.WithWorkers(1), serve.WithBackends(urls...),
		serve.WithFleetConfig(serve.FleetConfig{ProbeInterval: -1, Client: &http.Client{Transport: f.fwd}}))
	f.chs = httptest.NewServer(f.coord)
	if err := f.warm(ctx, client, in); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// warm builds the grid's programs on every server, as a fleet that has
// served earlier sweeps has them: the backends evaluate one tiny cell per
// benchmark and the coordinator, whose sweeps would forward, one tiny
// evaluate each. Their stage keys match no measured cell.
func (f *fleet) warm(ctx context.Context, client *http.Client, in inputs) error {
	tiny := preexec.DefaultConfig()
	tiny.Machine.WarmInsts, tiny.Machine.MeasureInsts = 1, 1000
	body, err := json.Marshal(sweepRequest{Benches: in.benches, Points: []sweepPoint{{Name: "warm", Config: tiny}}, Workers: 1})
	if err != nil {
		return err
	}
	for _, hs := range f.bhs {
		if err := do(ctx, client, http.MethodPost, hs.URL+"/v1/sweep", body, "").check("warm-up sweep"); err != nil {
			return err
		}
	}
	for _, b := range in.benches {
		cell := evalCell{Workload: b, Config: tiny}
		if err := do(ctx, client, http.MethodPost, f.chs.URL+"/v1/evaluate", cell.body(), "").check("warm-up evaluate"); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) close() {
	f.chs.Close()
	f.coord.Close()
	f.fwd.base.CloseIdleConnections()
	for i := range f.bhs {
		f.bhs[i].Close()
		f.backends[i].Close()
	}
}

// fleetSystem posts one grid per repetition to a fresh, warmed fleet, so
// every repetition starts with built programs and empty stage caches.
type fleetSystem struct {
	in     inputs
	body   []byte
	client *http.Client
	// ready is a started fleet no repetition has used yet; last is the
	// latest repetition's, kept live so the retained heap counts it.
	ready, last *fleet
	lastBody    []byte
	builds      snapshot
}

func setupFleet(ctx context.Context, in inputs) (system, error) {
	s := &fleetSystem{in: in, body: in.sweepBody(), client: newClient()}
	var err error
	if s.ready, err = startFleet(ctx, s.client, in); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *fleetSystem) firstCell() (*preexec.Program, preexec.Config) {
	return buildBuiltin(s.in.benches[0]), s.in.points[0].Config
}

func (s *fleetSystem) buildCount() (int, time.Duration) {
	return int(s.builds.count[stBuild]), s.builds.busy[stBuild]
}

func (s *fleetSystem) rep(ctx context.Context, tr *tracing) (repResult, error) {
	if s.last != nil {
		s.last.close()
		s.last = nil
	}
	f := s.ready
	if f == nil {
		var err error
		if f, err = startFleet(ctx, s.client, s.in); err != nil {
			return repResult{}, err
		}
	}
	s.ready, s.last = nil, f

	var before [3]snapshot
	if tr != nil {
		var err error
		if before, err = s.snapshots(ctx, f); err != nil {
			return repResult{}, err
		}
		s.builds = snapshot{}
		for _, b := range before {
			s.builds.count[stBuild] += b.count[stBuild]
			s.builds.busy[stBuild] += b.busy[stBuild]
		}
	}
	reqSpan := tr.start("", "sweep request")
	if tr != nil {
		f.fwd.trace.Store(&forwardTrace{tracing: tr, parent: reqSpan})
		for _, m := range f.meters {
			m.trace.Store(tr)
		}
	}
	start := time.Now()
	x := do(ctx, s.client, http.MethodPost, f.chs.URL+"/v1/sweep", s.body, "")
	wall := time.Since(start)
	reqSpan.End()
	if err := x.check("POST /v1/sweep"); err != nil {
		return repResult{}, err
	}

	f.fwd.mu.Lock()
	r := repResult{wall: wall, cells: len(s.in.benches) * len(s.in.points), latencies: f.fwd.latencies}
	forwards, busy := f.fwd.forwards, f.fwd.busy
	f.fwd.mu.Unlock()
	if s.lastBody != nil && !bytes.Equal(x.body, s.lastBody) {
		r.failures = append(r.failures, fmt.Errorf("merged sweep differs from the previous repetition's"))
	}
	s.lastBody = x.body
	reps, err := decodeSweep(x.body)
	if err != nil {
		r.failures = append(r.failures, err)
	}
	r.reports = reps

	if tr != nil {
		after, err := s.snapshots(ctx, f)
		if err != nil {
			return repResult{}, err
		}
		for i, hs := range f.bhs {
			if err := tr.importSpans(ctx, s.client, hs.URL, fleetBackends[i]); err != nil {
				return repResult{}, err
			}
		}
		for i := range after {
			tr.t.addStages(before[i], after[i])
		}
		tr.t.mu.Lock()
		if b, a := before[0].stats.Fleet, after[0].stats.Fleet; a != nil && b != nil {
			tr.t.fleetCounts.Retries += a.Retries - b.Retries
			tr.t.fleetCounts.Failovers += a.Failovers - b.Failovers
			tr.t.fleetCounts.LocalFallbacks += a.LocalFallbacks - b.LocalFallbacks
		}
		tr.t.workers = len(fleetBackends)
		tr.t.wall += wall
		for i, n := range forwards {
			tr.t.forwards[i] += n
		}
		tr.t.forwardBusy += busy
		tr.t.rtt += busy
		tr.t.requests++
		tr.t.respBytes += int64(len(x.body))
		tr.t.mu.Unlock()
	}
	return r, nil
}

// snapshots reads the coordinator's and both backends' counters.
func (s *fleetSystem) snapshots(ctx context.Context, f *fleet) ([3]snapshot, error) {
	var snaps [3]snapshot
	for i, url := range []string{f.chs.URL, f.bhs[0].URL, f.bhs[1].URL} {
		var err error
		if snaps[i], err = scrape(ctx, s.client, url); err != nil {
			return snaps, err
		}
	}
	return snaps, nil
}

// decodeSweep extracts the reports of a /v1/sweep response in grid order.
func decodeSweep(body []byte) ([]preexec.Report, error) {
	var res struct {
		Cells []struct {
			Bench  string         `json:"bench"`
			Point  string         `json:"point"`
			Report preexec.Report `json:"report"`
			Error  string         `json:"error"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("sweep response: %w", err)
	}
	reps := make([]preexec.Report, 0, len(res.Cells))
	for _, c := range res.Cells {
		if c.Error != "" {
			return nil, fmt.Errorf("cell %s/%s: %s", c.Bench, c.Point, c.Error)
		}
		reps = append(reps, c.Report)
	}
	return reps, nil
}

// verify requires the fleet's merged result to equal, byte for byte, a
// local preexec.Sweep of the same grid rendered the way preexecd renders
// it.
func (s *fleetSystem) verify(ctx context.Context, _ uint64) (int, []error) {
	benches := make([]preexec.SweepBench, len(s.in.benches))
	for i, name := range s.in.benches {
		benches[i] = preexec.SweepBench{Name: name, Program: buildBuiltin(name)}
	}
	res, err := (&preexec.Sweep{Workers: loadClients}).Run(ctx, benches, s.in.points)
	if err != nil {
		return 1, []error{fmt.Errorf("local sweep: %w", err)}
	}
	var want bytes.Buffer
	if err := sweepio.Emit(&want, res, sweepio.Options{JSON: true, Point: true}); err != nil {
		return 1, []error{fmt.Errorf("local sweep: %w", err)}
	}
	if !bytes.Equal(s.lastBody, want.Bytes()) {
		return 1, []error{fmt.Errorf("fleet sweep differs from the local sweep of the same grid")}
	}
	return 1, nil
}

func (s *fleetSystem) outputs() ([]preexec.Report, string, error) {
	reps, err := decodeSweep(s.lastBody)
	if err != nil {
		return nil, "", err
	}
	d, err := reportDigest(reps)
	return reps, d, err
}

func (s *fleetSystem) close() {
	for _, f := range []*fleet{s.ready, s.last} {
		if f != nil {
			f.close()
		}
	}
	s.client.CloseIdleConnections()
}
