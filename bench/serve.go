package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"preexec"
	"preexec/serve"
)

const (
	// serveCacheLimit is the stage-cache bound of the example preexecd
	// deployment in the repository README (-cachelimit 1024). A run's
	// 1000 measured requests hold at most about 210 profiles, so nothing
	// is evicted: the cache grows with the traffic as it would in service.
	serveCacheLimit = 1024
	// gateSampleEvery spaces the traced run's /v1/stats samples of the
	// worker gate, in requests of the first client.
	gateSampleEvery = 10
)

// serveSystem is an in-process evaluation service driven over loopback TCP
// by a closed loop of loadClients clients.
type serveSystem struct {
	in      inputs
	srv     *serve.Server
	meter   *handlerMeter
	hs      *httptest.Server
	clients [loadClients]*http.Client
	// hotResp are the hot set's warm-up responses, which every later
	// response to a hot cell must equal byte for byte.
	hotResp    [][]byte
	hotReports []preexec.Report
	next       int // position in the request stream
	builds     snapshot
}

func setupServe(ctx context.Context, in inputs) (system, error) {
	s := &serveSystem{in: in, srv: serve.New(serve.WithWorkers(loadClients), serve.WithCacheLimit(serveCacheLimit))}
	s.meter = &handlerMeter{h: s.srv}
	s.hs = httptest.NewServer(s.meter)
	for i := range s.clients {
		s.clients[i] = newClient()
	}
	s.hotResp = make([][]byte, len(in.hot))
	errs := make([]error, len(in.hot))
	closedLoop(len(in.hot), func(c, i int) {
		x := do(ctx, s.clients[c], http.MethodPost, s.hs.URL+"/v1/evaluate", in.hot[i].body(), "")
		s.hotResp[i], errs[i] = x.body, x.check("warm-up "+in.hot[i].Workload)
	})
	for i, err := range errs {
		if err != nil {
			s.close()
			return nil, err
		}
		var r preexec.Report
		if err := json.Unmarshal(s.hotResp[i], &r); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", in.hot[i].Workload, err)
		}
		s.hotReports = append(s.hotReports, r)
	}
	var err error
	s.builds, err = scrape(ctx, s.clients[0], s.hs.URL)
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveSystem) firstCell() (*preexec.Program, preexec.Config) {
	return buildBuiltin(s.in.hot[0].Workload), s.in.hot[0].Config
}

func (s *serveSystem) buildCount() (int, time.Duration) {
	return int(s.builds.count[stBuild]), s.builds.busy[stBuild]
}

// cell returns request k of the stream and its hot-set index (-1 if cold).
func (s *serveSystem) cell(k int) (evalCell, int) {
	if i := s.in.order[k]; i >= 0 {
		return s.in.hot[i], i
	}
	return s.in.cold[-1-s.in.order[k]], -1
}

func (s *serveSystem) rep(ctx context.Context, tr *tracing) (repResult, error) {
	if s.next+serveBatch > len(s.in.order) {
		return repResult{}, fmt.Errorf("request stream of %d exhausted", len(s.in.order))
	}
	first := s.next
	s.next += serveBatch
	bodies := make([][]byte, serveBatch)
	for i := range bodies {
		c, _ := s.cell(first + i)
		bodies[i] = c.body()
	}

	var before snapshot
	if tr != nil {
		var err error
		if before, err = scrape(ctx, s.clients[0], s.hs.URL); err != nil {
			return repResult{}, err
		}
		s.meter.trace.Store(tr)
		defer s.meter.trace.Store(nil)
	}
	xs := make([]exchange, serveBatch)
	var queued []int64
	repSpan := tr.start("", "repetition")
	start := time.Now()
	closedLoop(serveBatch, func(c, i int) {
		sp := tr.start(repSpan.SpanID(), "request")
		xs[i] = do(ctx, s.clients[c], http.MethodPost, s.hs.URL+"/v1/evaluate", bodies[i], tr.header(sp))
		sp.End()
		if tr == nil {
			return
		}
		cell, _ := s.cell(first + i)
		sp.SetAttr("bench", cell.Workload)
		if c == 0 && i%gateSampleEvery == 0 {
			var st serverStats
			x := do(ctx, s.clients[c], http.MethodGet, s.hs.URL+"/v1/stats", nil, "")
			if x.check("GET /v1/stats") == nil && json.Unmarshal(x.body, &st) == nil {
				queued = append(queued, st.Gate.Queued)
			}
		}
	})
	wall := time.Since(start)
	repSpan.End()

	r := repResult{wall: wall, cells: serveBatch}
	var rtt time.Duration
	var respBytes int64
	for i, x := range xs {
		r.latencies = append(r.latencies, ms(x.rtt))
		rtt += x.rtt
		respBytes += int64(len(x.body))
		cell, hot := s.cell(first + i)
		if err := x.check("evaluate " + cell.Workload); err != nil {
			r.failures = append(r.failures, err)
			continue
		}
		if hot >= 0 {
			if !bytes.Equal(x.body, s.hotResp[hot]) {
				r.failures = append(r.failures, fmt.Errorf("hot cell %d (%s): response differs from its warm-up response", hot, cell.Workload))
			}
			continue
		}
		var rep preexec.Report
		if err := json.Unmarshal(x.body, &rep); err != nil {
			r.failures = append(r.failures, fmt.Errorf("evaluate %s: %w", cell.Workload, err))
			continue
		}
		r.reports = append(r.reports, rep)
	}
	if tr != nil {
		after, err := scrape(ctx, s.clients[0], s.hs.URL)
		if err != nil {
			return repResult{}, err
		}
		tr.t.addStages(before, after)
		tr.t.mu.Lock()
		tr.t.workers = loadClients
		tr.t.wall += wall
		tr.t.requests += serveBatch
		tr.t.rtt += rtt
		tr.t.respBytes += respBytes
		tr.t.queued = append(tr.t.queued, queued...)
		tr.t.mu.Unlock()
	}
	return r, nil
}

// verify requires every hot-set response to equal, byte for byte, the JSON
// encoding of a library Engine.Evaluate of the same cell on an engine with
// no cache (the full-simulation path).
func (s *serveSystem) verify(ctx context.Context, _ uint64) (int, []error) {
	jobs := make([]preexec.Job, len(s.in.hot))
	progs := make(map[string]*preexec.Program)
	for i, c := range s.in.hot {
		if progs[c.Workload] == nil {
			progs[c.Workload] = buildBuiltin(c.Workload)
		}
		jobs[i] = preexec.Job{Program: progs[c.Workload], Engine: preexec.New(preexec.WithConfig(c.Config))}
	}
	reps, errs, _ := (&preexec.Suite{Workers: loadClients}).Run(ctx, jobs)
	var failures []error
	for i, c := range s.in.hot {
		if errs[i] != nil {
			failures = append(failures, fmt.Errorf("library evaluate %s: %w", c.Workload, errs[i]))
			continue
		}
		want, err := json.Marshal(reps[i])
		if err != nil || !bytes.Equal(s.hotResp[i], append(want, '\n')) {
			failures = append(failures, fmt.Errorf("hot cell %d (%s): /v1/evaluate body differs from the library's report", i, c.Workload))
		}
	}
	return len(s.in.hot), failures
}

func (s *serveSystem) outputs() ([]preexec.Report, string, error) {
	return s.hotReports, bytesDigest(bytes.Join(s.hotResp, nil)), nil
}

func (s *serveSystem) close() {
	s.hs.Close()
	for _, c := range s.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	s.srv.Close()
}

// buildBuiltin builds a built-in workload at scale 1; the names come from
// preexec.WorkloadNames, so the lookup cannot fail.
func buildBuiltin(name string) *preexec.Program {
	w, err := preexec.WorkloadByName(name)
	if err != nil {
		panic(err)
	}
	return w.Build(1)
}
