package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"preexec"
	"preexec/internal/fleet"
	"preexec/internal/fleet/chaos"
	"preexec/internal/sweepio"
	"preexec/serve"
)

// coordGridBenches / coordGridPoints define the grid the coordinator tests
// sweep: 3 benchmarks x 3 points, where points "a" and "c" share their
// stage keys (they differ only in a selection switch) so the modeled merged
// cache counters must report cross-point hits, and point "b" differs in the
// measured window so it needs its own base run and profile.
var coordGridBenches = []string{"crafty", "gap", "mcf"}

// gridPoint is one named sweep point: its JSON config fragment as a client
// submits it.
type gridPoint struct{ name, cfg string }

var coordGridPoints = []gridPoint{
	{"a", smallCfg},
	{"b", `{"machine": {"warm_insts": 2000, "measure_insts": 9000}}`},
	{"c", `{"machine": {"warm_insts": 2000, "measure_insts": 8000}, "selection": {"optimize": false}}`},
}

func coordGridRequest(benches []string, points []gridPoint, stream bool, format string) string {
	var pts []string
	for _, p := range points {
		pts = append(pts, fmt.Sprintf(`{"name": %q, "config": %s}`, p.name, p.cfg))
	}
	req := fmt.Sprintf(`{"benches": ["%s"], "points": [%s]`,
		strings.Join(benches, `", "`), strings.Join(pts, ", "))
	if stream {
		req += `, "stream": true`
	}
	if format != "" {
		req += fmt.Sprintf(`, "format": %q`, format)
	}
	return req + `}`
}

// coordGridConfigs decodes a grid's points exactly as the handler does.
func coordGridConfigs(t *testing.T, grid []gridPoint) []preexec.ConfigPoint {
	t.Helper()
	points := make([]preexec.ConfigPoint, len(grid))
	for i, p := range grid {
		cfg := preexec.DefaultConfig()
		if err := json.Unmarshal([]byte(p.cfg), &cfg); err != nil {
			t.Fatal(err)
		}
		points[i] = preexec.ConfigPoint{Name: p.name, Config: cfg}
	}
	return points
}

// singleNodeGolden renders the grid through a direct preexec.Sweep run with
// a fresh cache — the byte-exact reference every coordinator merge must hit.
func singleNodeGolden(t *testing.T, names []string, points []preexec.ConfigPoint) []byte {
	t.Helper()
	benches, err := preexec.SweepBenches(names, 1)
	if err != nil {
		t.Fatal(err)
	}
	sweep := &preexec.Sweep{Workers: 2}
	res, err := sweep.Run(context.Background(), benches, points)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sweepio.Emit(&want, res, sweepio.Options{JSON: true, Point: true}); err != nil {
		t.Fatal(err)
	}
	return want.Bytes()
}

// coordFleet builds n backend servers (each behind a chaos proxy, initially
// pass-through) and a coordinator over them with probing disabled, so tests
// control fault determinism entirely through the proxies.
func coordFleet(t *testing.T, n int, fc serve.FleetConfig) (coordURL string, coord *serve.Server, proxies map[string]*chaos.Proxy) {
	t.Helper()
	proxies = make(map[string]*chaos.Proxy)
	var urls []string
	for i := 0; i < n; i++ {
		p := chaos.New(serve.New(serve.WithWorkers(2)), chaos.Schedule{})
		ts := httptest.NewServer(p)
		t.Cleanup(ts.Close)
		proxies[ts.URL] = p
		urls = append(urls, ts.URL)
	}
	coord = serve.New(serve.WithWorkers(2), serve.WithBackends(urls...), serve.WithFleetConfig(fc))
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord)
	t.Cleanup(cts.Close)
	return cts.URL, coord, proxies
}

func coordFleetStats(t *testing.T, coordURL string) (st struct {
	Backends []struct {
		Name      string `json:"name"`
		Live      bool   `json:"live"`
		Ejections int64  `json:"ejections"`
		InFlight  int64  `json:"in_flight"`
	} `json:"backends"`
	Retries        int64 `json:"retries"`
	Failovers      int64 `json:"failovers"`
	RemoteCells    int64 `json:"remote_cells"`
	LocalFallbacks int64 `json:"local_fallbacks"`
}) {
	t.Helper()
	raw := serverStats(t, coordURL)
	if raw["fleet"] == nil {
		t.Fatal("/v1/stats has no fleet section in coordinator mode")
	}
	if err := json.Unmarshal(raw["fleet"], &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCoordinatorSweepBitIdentical is the no-fault half of the acceptance
// criterion: a 3-backend coordinator sweep merges to the exact bytes of a
// single-node preexec.Sweep run — reports, cell order, and the modeled
// cache counters all included.
func TestCoordinatorSweepBitIdentical(t *testing.T) {
	coordURL, _, _ := coordFleet(t, 3, serve.FleetConfig{ProbeInterval: -1})
	status, got := post(t, coordURL+"/v1/sweep", coordGridRequest(coordGridBenches, coordGridPoints, false, ""))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	want := singleNodeGolden(t, coordGridBenches, coordGridConfigs(t, coordGridPoints))
	if !bytes.Equal(got, want) {
		t.Fatalf("coordinator sweep differs from the single-node run\ncoord:  %s\nsingle: %s",
			firstDiffContext(got, want), firstDiffContext(want, got))
	}

	st := coordFleetStats(t, coordURL)
	cells := int64(len(coordGridBenches) * len(coordGridPoints))
	if st.RemoteCells != cells || st.LocalFallbacks != 0 {
		t.Errorf("remote_cells %d local_fallbacks %d, want %d remote and 0 local", st.RemoteCells, st.LocalFallbacks, cells)
	}
	if st.Retries != 0 || st.Failovers != 0 {
		t.Errorf("fault-free sweep recorded retries=%d failovers=%d", st.Retries, st.Failovers)
	}
	for _, b := range st.Backends {
		if !b.Live {
			t.Errorf("backend %s not live after a fault-free sweep", b.Name)
		}
	}
}

// machineGridPoints crosses two memory latencies with two widths: four base
// runs per benchmark that all replay one trace, so the coordinator's
// modeled trace counters differ from its base counters.
var machineGridPoints = []gridPoint{
	{"ml70/w8", smallCfg},
	{"ml140/w8", `{"machine": {"warm_insts": 2000, "measure_insts": 8000, "mem_lat": 140}}`},
	{"ml70/w4", `{"machine": {"warm_insts": 2000, "measure_insts": 8000, "width": 4}}`},
	{"ml140/w4", `{"machine": {"warm_insts": 2000, "measure_insts": 8000, "mem_lat": 140, "width": 4}}`},
}

// TestCoordinatorMachineGridBitIdentical checks the coordinator's cache model
// across machine points: a memory latency x width sweep merges to the exact
// bytes of the single-node run, whose cache records one trace per
// benchmark for its four base runs.
func TestCoordinatorMachineGridBitIdentical(t *testing.T) {
	benches := coordGridBenches[:2]
	coordURL, _, _ := coordFleet(t, 3, serve.FleetConfig{ProbeInterval: -1})
	status, got := post(t, coordURL+"/v1/sweep", coordGridRequest(benches, machineGridPoints, false, ""))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	want := singleNodeGolden(t, benches, coordGridConfigs(t, machineGridPoints))
	if !bytes.Equal(got, want) {
		t.Fatalf("coordinator sweep differs from the single-node run\ncoord:  %s\nsingle: %s",
			firstDiffContext(got, want), firstDiffContext(want, got))
	}
	var res struct {
		Cache preexec.CacheStats `json:"cache"`
	}
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatal(err)
	}
	if res.Cache.BaseRuns != 8 || res.Cache.TraceRuns != 2 {
		t.Errorf("cache = %+v, want 8 base runs sharing 2 traces", res.Cache)
	}
}

// sliceGridPoints is a Figure-4 grid: two slicing scopes x two maximum
// p-thread lengths, four profile shapes per benchmark.
var sliceGridPoints = []gridPoint{
	{"sc256/ml8", `{"machine": {"warm_insts": 2000, "measure_insts": 8000}, "selection": {"scope": 256, "max_len": 8}}`},
	{"sc256/ml32", `{"machine": {"warm_insts": 2000, "measure_insts": 8000}, "selection": {"scope": 256, "max_len": 32}}`},
	{"sc1024/ml8", `{"machine": {"warm_insts": 2000, "measure_insts": 8000}, "selection": {"scope": 1024, "max_len": 8}}`},
	{"sc1024/ml32", smallCfg},
}

// TestCoordinatorSliceGridBitIdentical checks a scope x length sweep through
// the coordinator: the backends profile whichever shapes are routed to
// them, and the merge still equals the single-node run, whose one pass per
// benchmark counts as four profile runs.
func TestCoordinatorSliceGridBitIdentical(t *testing.T) {
	benches := coordGridBenches[:2]
	coordURL, _, _ := coordFleet(t, 3, serve.FleetConfig{ProbeInterval: -1})
	status, got := post(t, coordURL+"/v1/sweep", coordGridRequest(benches, sliceGridPoints, false, ""))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	want := singleNodeGolden(t, benches, coordGridConfigs(t, sliceGridPoints))
	if !bytes.Equal(got, want) {
		t.Fatalf("coordinator sweep differs from the single-node run\ncoord:  %s\nsingle: %s",
			firstDiffContext(got, want), firstDiffContext(want, got))
	}
	var res struct {
		Cache preexec.CacheStats `json:"cache"`
	}
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatal(err)
	}
	if res.Cache.ProfileRuns != 8 || res.Cache.BaseRuns != 2 {
		t.Errorf("cache = %+v, want 8 profile runs and 2 base runs", res.Cache)
	}
}

// TestCoordinatorChaosEjectionGolden is the acceptance criterion's fault
// half: one of three backends starts killing connections mid-grid (its
// first request passes, everything after dies), gets ejected after the
// consecutive-failure threshold, and its cells fail over to live backends —
// with the merged output still byte-identical to the single-node run and
// the retry/failover counters visible in the coordinator's stats.
func TestCoordinatorChaosEjectionGolden(t *testing.T) {
	coordURL, coord, proxies := coordFleet(t, 3, serve.FleetConfig{
		ProbeInterval: -1,
		Fleet: fleet.Config{
			BackoffBase: time.Millisecond,
			BackoffMax:  5 * time.Millisecond,
		},
	})

	// Pick the fault target deterministically: the backend that is home to
	// the most cells (>= 2 by pigeonhole over 9 cells), so at least one of
	// its requests is scheduled to die.
	points := coordGridConfigs(t, coordGridPoints)
	homes := make(map[string]int)
	for _, bench := range coordGridBenches {
		for _, pt := range points {
			homes[coord.CoordinatorHome(bench, 1, pt.Config)]++
		}
	}
	target, max := "", 0
	for addr, n := range homes {
		if n > max {
			target, max = addr, n
		}
	}
	if max < 2 {
		t.Fatalf("routing map %v has no backend with >= 2 cells", homes)
	}
	// Mid-grid failure: the target's first request completes, every later
	// one kills the connection. Order-insensitive beyond index 0, so the
	// coordinator's concurrency cannot perturb the schedule.
	proxies[target].SetSchedule(chaos.Schedule{
		Plan: []chaos.Fault{{Kind: chaos.None}},
		Then: chaos.Fault{Kind: chaos.Kill},
	})

	status, got := post(t, coordURL+"/v1/sweep", coordGridRequest(coordGridBenches, coordGridPoints, false, ""))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	want := singleNodeGolden(t, coordGridBenches, points)
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos sweep differs from the single-node run\ncoord:  %s\nsingle: %s",
			firstDiffContext(got, want), firstDiffContext(want, got))
	}

	st := coordFleetStats(t, coordURL)
	cells := int64(len(coordGridBenches) * len(coordGridPoints))
	if st.RemoteCells != cells || st.LocalFallbacks != 0 {
		t.Errorf("remote_cells %d local_fallbacks %d, want every cell served remotely", st.RemoteCells, st.LocalFallbacks)
	}
	// Ejection takes exactly EjectAfter (3) failed attempts, each of which
	// forces a retry, and at least one cell must have been re-homed.
	if st.Retries < 3 {
		t.Errorf("retries %d, want >= 3 (the ejection threshold)", st.Retries)
	}
	if st.Failovers < 1 {
		t.Errorf("failovers %d, want >= 1", st.Failovers)
	}
	for _, b := range st.Backends {
		if b.Name == target {
			if b.Live || b.Ejections != 1 {
				t.Errorf("chaos backend %+v, want ejected exactly once", b)
			}
		} else if !b.Live {
			t.Errorf("healthy backend %s was ejected", b.Name)
		}
	}
}

// TestCoordinatorAllBackendsDeadLocalFallback: with every backend
// unreachable from the first request, the sweep still completes — the
// coordinator evaluates every cell through its own engine and StageCache —
// and still matches the single-node bytes.
func TestCoordinatorAllBackendsDeadLocalFallback(t *testing.T) {
	// Two dead addresses: bind-then-close guarantees a connection-refused
	// port rather than a hanging one.
	var dead []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(http.NotFoundHandler())
		dead = append(dead, ts.URL)
		ts.Close()
	}
	coord := serve.New(serve.WithWorkers(2),
		serve.WithBackends(dead...),
		serve.WithFleetConfig(serve.FleetConfig{
			ProbeInterval: -1,
			Fleet: fleet.Config{
				EjectAfter:  1,
				RetryBudget: 3,
				BackoffBase: time.Millisecond,
				BackoffMax:  2 * time.Millisecond,
			},
		}))
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord)
	t.Cleanup(cts.Close)

	body := fmt.Sprintf(`{"benches": ["crafty"], "points": [{"name": "a", "config": %s}]}`, smallCfg)
	status, got := post(t, cts.URL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	cfg := preexec.DefaultConfig()
	if err := json.Unmarshal([]byte(smallCfg), &cfg); err != nil {
		t.Fatal(err)
	}
	want := singleNodeGolden(t, []string{"crafty"}, []preexec.ConfigPoint{{Name: "a", Config: cfg}})
	if !bytes.Equal(got, want) {
		t.Fatalf("all-dead sweep differs from the single-node run\ncoord:  %s\nsingle: %s",
			firstDiffContext(got, want), firstDiffContext(want, got))
	}

	st := coordFleetStats(t, cts.URL)
	if st.LocalFallbacks != 1 || st.RemoteCells != 0 {
		t.Errorf("local_fallbacks %d remote_cells %d, want the one cell evaluated locally", st.LocalFallbacks, st.RemoteCells)
	}
	for _, b := range st.Backends {
		if b.Live {
			t.Errorf("unreachable backend %s still live", b.Name)
		}
	}
}

// TestCoordinatorStreaming: the NDJSON contract holds in coordinator mode —
// one cell event per completed cell, then the merged result.
func TestCoordinatorStreaming(t *testing.T) {
	coordURL, _, _ := coordFleet(t, 2, serve.FleetConfig{ProbeInterval: -1})
	body := fmt.Sprintf(`{"benches": ["crafty", "gap"], "stream": true,
		"points": [{"name": "base", "config": %s}]}`, smallCfg)
	resp, err := http.Post(coordURL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var cells int
	var sawResult bool
	for {
		var ev struct {
			Event string
			Cell  struct {
				Name  string
				Done  int
				Total int
				Error string
			}
			Error  string
			Result *preexec.SweepResult
		}
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		switch ev.Event {
		case "cell":
			cells++
			if ev.Cell.Total != 2 || ev.Cell.Name == "" || ev.Cell.Error != "" {
				t.Errorf("bad cell event %+v", ev.Cell)
			}
		case "result":
			sawResult = true
			if len(ev.Result.Cells) != 2 {
				t.Errorf("result has %d cells, want 2", len(ev.Result.Cells))
			}
			for _, c := range ev.Result.Cells {
				if c.Report.Base.Retired == 0 {
					t.Errorf("cell %s/%s has an empty report", c.Bench, c.Point)
				}
			}
		default:
			t.Errorf("unexpected event %q", ev.Event)
		}
	}
	if cells != 2 || !sawResult {
		t.Fatalf("stream had %d cell events (want 2), result %v", cells, sawResult)
	}
}

// TestGateStats: /v1/stats exposes the simulation gate's shape — the
// saturation signal coordinators probe for failover preference.
func TestGateStats(t *testing.T) {
	ts := newTestServer(t, serve.WithWorkers(3))
	stats := serverStats(t, ts.URL)
	var gate struct {
		Workers  int   `json:"workers"`
		InFlight int   `json:"in_flight"`
		Queued   int64 `json:"queued"`
	}
	if stats["gate"] == nil {
		t.Fatal("/v1/stats has no gate section")
	}
	if err := json.Unmarshal(stats["gate"], &gate); err != nil {
		t.Fatal(err)
	}
	if gate.Workers != 3 {
		t.Errorf("gate.workers = %d, want 3", gate.Workers)
	}
	if gate.InFlight != 0 || gate.Queued != 0 {
		t.Errorf("idle server reports in_flight=%d queued=%d", gate.InFlight, gate.Queued)
	}
}

// namedFleet serves each handler on a loopback listener and builds a
// coordinator over them (probing off) that reaches them as
// http://backend-<i>. The ring hashes backend names, so fixed names route
// every cell the same way on every run, where httptest's random ports would
// not.
func namedFleet(t *testing.T, workers int, fc serve.FleetConfig, handlers ...http.Handler) (coordURL string, coord *serve.Server) {
	t.Helper()
	hosts := make(map[string]string) // dialed host:port -> listener address
	var urls []string
	for i, h := range handlers {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		name := fmt.Sprintf("backend-%d", i)
		hosts[name+":80"] = ts.Listener.Addr().String()
		urls = append(urls, "http://"+name)
	}
	var d net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		return d.DialContext(ctx, network, hosts[addr])
	}}
	t.Cleanup(tr.CloseIdleConnections)
	fc.ProbeInterval = -1
	fc.Client = &http.Client{Transport: tr}
	coord = serve.New(serve.WithWorkers(workers), serve.WithBackends(urls...), serve.WithFleetConfig(fc))
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord)
	t.Cleanup(cts.Close)
	return cts.URL, coord
}

// holdFleet wraps two backends' handlers so that every forward blocks
// until the test releases it. It counts held forwards per backend and the
// home cells of each backend not yet forwarded, and flags a forward that
// lands on a backend already holding one while the other backend holds none
// and still has home cells queued. It also records the cells forwarded to
// each backend in arrival order, and how many arrived while the other
// backend held one. A forward stops counting when it is released, so a
// response racing back to the coordinator cannot leave a stale count behind.
type holdFleet struct {
	t        *testing.T
	arrivals chan chan struct{} // one release channel per forward
	stop     chan struct{}      // closed at cleanup: held forwards return unserved

	mu        sync.Mutex
	homes     map[string]int // cell name (bench/point) -> home backend
	held      [2]int
	queued    [2]int
	arrived   [2][]string // per backend: forwarded cells, in arrival order
	otherBusy [2]int      // per backend: forwards that arrived while the other held one
}

// newHoldFleet holds the forwards of a grid of n cells. The caller closes
// stop in a cleanup registered after the servers' own, so it runs first.
func newHoldFleet(t *testing.T, n int) *holdFleet {
	return &holdFleet{t: t, arrivals: make(chan chan struct{}, n), stop: make(chan struct{})}
}

// route records each cell's home backend; call it before the sweep.
func (h *holdFleet) route(homes map[string]int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.homes = homes
	for _, b := range homes {
		h.queued[b]++
	}
}

// wrap holds backend b's forwards before passing them to next.
func (h *holdFleet) wrap(b int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req struct {
			Benches []string
			Points  []struct{ Name string }
		}
		if err := json.Unmarshal(body, &req); err != nil || len(req.Benches) != 1 || len(req.Points) != 1 {
			h.t.Errorf("backend %d: unexpected forward %s", b, body)
			return
		}
		cell := req.Benches[0] + "/" + req.Points[0].Name
		o := 1 - b
		h.mu.Lock()
		h.queued[h.homes[cell]]--
		h.held[b]++
		h.arrived[b] = append(h.arrived[b], cell)
		if h.held[o] > 0 {
			h.otherBusy[b]++
		}
		if h.held[b] > 1 && h.held[o] == 0 && h.queued[o] > 0 {
			h.t.Errorf("cell %s: second forward to backend %d while backend %d idles with %d cells queued", cell, b, o, h.queued[o])
		}
		h.mu.Unlock()
		release := make(chan struct{})
		select {
		case h.arrivals <- release:
		case <-h.stop:
			return
		}
		select {
		case <-release:
		case <-h.stop:
			return
		}
		h.mu.Lock()
		h.held[b]--
		h.mu.Unlock()
		next.ServeHTTP(w, r)
	})
}

// releaseAll keeps slots forwards held at once (fewer once fewer cells
// remain) and releases them oldest first until all n have been released,
// so every slot is busy whenever a slot picks a cell.
func (h *holdFleet) releaseAll(n, slots int) {
	h.t.Helper()
	var held []chan struct{}
	timeout := time.NewTimer(2 * time.Minute)
	defer timeout.Stop()
	for released := 0; released < n; released++ {
		for len(held) < slots && len(held) < n-released {
			select {
			case ch := <-h.arrivals:
				held = append(held, ch)
			case <-timeout.C:
				h.t.Fatalf("%d of %d forwards released, %d held: no further forward arrived", released, n, len(held))
			}
		}
		close(held[0])
		held = held[1:]
	}
}

// postAsync posts body and delivers the response on the returned channel,
// so the test goroutine stays free to release forwards.
func postAsync(url, body string) <-chan postResult {
	out := make(chan postResult, 1)
	go func() {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			out <- postResult{err: err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		out <- postResult{status: resp.StatusCode, body: raw, err: err}
	}()
	return out
}

type postResult struct {
	status int
	body   []byte
	err    error
}

// dispatchGridPoints are two points that share every stage key (they differ
// only in a selection switch), so each benchmark's two adjacent grid cells
// share a route key and a home backend.
var dispatchGridPoints = []gridPoint{
	{"o1", smallCfg},
	{"o0", `{"machine": {"warm_insts": 2000, "measure_insts": 8000}, "selection": {"optimize": false}}`},
}

// TestCoordinatorDispatchKeepsBackendsBusy sweeps a grid whose adjacent
// cells share a home backend over two single-worker backends with two
// slots. Forwards are held and released one at a time, so both slots are
// busy whenever one picks a cell. No slot may forward to a backend already
// serving a cell while the other backend idles with home cells queued (a
// grid-order feed sends cells 0 and 1 to one backend), and the merge must
// equal the local sweep.
func TestCoordinatorDispatchKeepsBackendsBusy(t *testing.T) {
	benches := []string{"crafty", "gap", "mcf", "vpr.p"}
	points := coordGridConfigs(t, dispatchGridPoints)
	cells := len(benches) * len(points)
	hf := newHoldFleet(t, cells)
	var handlers []http.Handler
	for b := 0; b < 2; b++ {
		backend := serve.New(serve.WithWorkers(1))
		t.Cleanup(backend.Close)
		handlers = append(handlers, hf.wrap(b, backend))
	}
	coordURL, coord := namedFleet(t, 1, serve.FleetConfig{}, handlers...)
	t.Cleanup(func() { close(hf.stop) })

	homes := make(map[string]int)
	var perHome [2]int
	for _, bench := range benches {
		for i, pt := range points {
			b := 0
			if coord.CoordinatorHome(bench, 1, pt.Config) == "http://backend-1" {
				b = 1
			}
			homes[bench+"/"+dispatchGridPoints[i].name] = b
			perHome[b]++
		}
	}
	if perHome[0] == 0 || perHome[1] == 0 {
		t.Fatalf("grid homes %v leave a backend without cells", homes)
	}
	hf.route(homes)

	done := postAsync(coordURL+"/v1/sweep", coordGridRequest(benches, dispatchGridPoints, false, ""))
	hf.releaseAll(cells, 2)
	res := <-done
	if res.err != nil || res.status != http.StatusOK {
		t.Fatalf("sweep: status %d, err %v: %s", res.status, res.err, res.body)
	}
	want := singleNodeGolden(t, benches, points)
	if !bytes.Equal(res.body, want) {
		t.Fatalf("coordinator sweep differs from the single-node run\ncoord:  %s\nsingle: %s",
			firstDiffContext(res.body, want), firstDiffContext(want, res.body))
	}
}

// TestCoordinatorEjectionDrainsQueuedCells ejects one of two backends
// mid-grid: the backend home to most cells serves its first forward and
// kills every later one. Every cell still queued for it must complete by
// failover, the sweep must finish with the single-node bytes, and every
// backend's forwards-in-flight count must be back at 0 in both /v1/stats
// and /metrics.
func TestCoordinatorEjectionDrainsQueuedCells(t *testing.T) {
	var proxies [2]*chaos.Proxy
	var handlers []http.Handler
	for b := range proxies {
		backend := serve.New(serve.WithWorkers(1))
		t.Cleanup(backend.Close)
		proxies[b] = chaos.New(backend, chaos.Schedule{})
		handlers = append(handlers, proxies[b])
	}
	coordURL, coord := namedFleet(t, 1, serve.FleetConfig{Fleet: fleet.Config{
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}}, handlers...)

	points := coordGridConfigs(t, coordGridPoints)
	perHome := make(map[string]int)
	for _, bench := range coordGridBenches {
		for _, pt := range points {
			perHome[coord.CoordinatorHome(bench, 1, pt.Config)]++
		}
	}
	target := 0
	if perHome["http://backend-1"] > perHome["http://backend-0"] {
		target = 1
	}
	targetCells := perHome[fmt.Sprintf("http://backend-%d", target)]
	if targetCells < 4 {
		t.Fatalf("routing map %v: want a backend home to >= 4 cells, so cells stay queued after its ejection", perHome)
	}
	proxies[target].SetSchedule(chaos.Schedule{
		Plan: []chaos.Fault{{Kind: chaos.None}},
		Then: chaos.Fault{Kind: chaos.Kill},
	})

	done := postAsync(coordURL+"/v1/sweep", coordGridRequest(coordGridBenches, coordGridPoints, false, ""))
	var res postResult
	select {
	case res = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("sweep did not finish after the ejection")
	}
	if res.err != nil || res.status != http.StatusOK {
		t.Fatalf("sweep: status %d, err %v: %s", res.status, res.err, res.body)
	}
	want := singleNodeGolden(t, coordGridBenches, points)
	if !bytes.Equal(res.body, want) {
		t.Fatalf("ejection sweep differs from the single-node run\ncoord:  %s\nsingle: %s",
			firstDiffContext(res.body, want), firstDiffContext(want, res.body))
	}

	st := coordFleetStats(t, coordURL)
	cells := int64(len(coordGridBenches) * len(coordGridPoints))
	if st.RemoteCells != cells || st.LocalFallbacks != 0 {
		t.Errorf("remote_cells %d local_fallbacks %d, want every cell served remotely", st.RemoteCells, st.LocalFallbacks)
	}
	// The target served one cell; each of its other home cells failed over.
	if want := int64(targetCells - 1); st.Failovers != want {
		t.Errorf("failovers %d, want %d (the target's home cells after its first)", st.Failovers, want)
	}
	if b := st.Backends[target]; b.Live || b.Ejections != 1 {
		t.Errorf("target backend %+v, want ejected exactly once", b)
	}
	text := metricsText(t, coordURL)
	for _, b := range st.Backends {
		if b.InFlight != 0 {
			t.Errorf("backend %s: /v1/stats in_flight %d after the sweep, want 0", b.Name, b.InFlight)
		}
		if got := metricValue(t, text, `preexec_fleet_backend_in_flight{backend="`+b.Name+`"}`); got != 0 {
			t.Errorf("backend %s: /metrics in flight %d after the sweep, want 0", b.Name, got)
		}
	}
}

// TestCoordinatorIdleBackendStealsQueuedCells sweeps a grid whose every
// cell is homed to one of two single-worker backends, with two slots.
// Forwards are held and released one at a time, so both slots are busy
// whenever one picks a cell. The other backend must serve forwards while
// the home backend is busy, stealing the grid's last cells from the tail of
// the home queue; stealing is no failover, and the merge must equal the
// local sweep. A dispatch that only forwards to a cell's home leaves the
// other backend idle.
func TestCoordinatorIdleBackendStealsQueuedCells(t *testing.T) {
	points := coordGridConfigs(t, dispatchGridPoints)
	const cells = 6 // three benchmarks x two points
	hf := newHoldFleet(t, cells)
	var handlers []http.Handler
	for b := 0; b < 2; b++ {
		backend := serve.New(serve.WithWorkers(1))
		t.Cleanup(backend.Close)
		handlers = append(handlers, hf.wrap(b, backend))
	}
	coordURL, coord := namedFleet(t, 1, serve.FleetConfig{}, handlers...)
	t.Cleanup(func() { close(hf.stop) })

	// Three benchmarks homed to one backend; both points of a benchmark
	// share its trace and so its home.
	var byHome [2][]string
	for _, bench := range []string{"bzip2", "crafty", "gap", "gcc", "mcf", "parser", "twolf", "vortex", "vpr.p", "vpr.r"} {
		b := 0
		if coord.CoordinatorHome(bench, 1, points[0].Config) == "http://backend-1" {
			b = 1
		}
		byHome[b] = append(byHome[b], bench)
	}
	home := 0
	if len(byHome[1]) > len(byHome[0]) {
		home = 1
	}
	benches := byHome[home][:cells/len(points)]
	var grid []string
	homes := make(map[string]int)
	for _, bench := range benches {
		for i, pt := range points {
			if coord.CoordinatorHome(bench, 1, pt.Config) != fmt.Sprintf("http://backend-%d", home) {
				t.Fatalf("%s/%s is not homed with its benchmark's other point", bench, dispatchGridPoints[i].name)
			}
			cell := bench + "/" + dispatchGridPoints[i].name
			grid = append(grid, cell)
			homes[cell] = home
		}
	}
	hf.route(homes)

	done := postAsync(coordURL+"/v1/sweep", coordGridRequest(benches, dispatchGridPoints, false, ""))
	hf.releaseAll(len(grid), 2)
	res := <-done
	if res.err != nil || res.status != http.StatusOK {
		t.Fatalf("sweep: status %d, err %v: %s", res.status, res.err, res.body)
	}
	want := singleNodeGolden(t, benches, points)
	if !bytes.Equal(res.body, want) {
		t.Fatalf("coordinator sweep differs from the single-node run\ncoord:  %s\nsingle: %s",
			firstDiffContext(res.body, want), firstDiffContext(want, res.body))
	}

	thief := 1 - home
	hf.mu.Lock()
	stolen, busy := hf.arrived[thief], hf.otherBusy[thief]
	hf.mu.Unlock()
	// Each release frees the slot of the backend that just served, which is
	// then the idle one: the home backend takes its queue's front and the
	// other backend steals, in turn.
	if len(stolen) != cells/2 {
		t.Fatalf("backend %d served %v and home backend %d served %v, want %d cells each", thief, stolen, home, hf.arrived[home], cells/2)
	}
	// The first two forwards leave together, so the first steal may reach
	// its backend before the home backend's first forward does; every later
	// one is sent while the home backend holds a forward.
	if busy < len(stolen)-1 {
		t.Errorf("backend %d: %d of its %d forwards arrived while backend %d was busy, want at least %d", thief, busy, len(stolen), home, len(stolen)-1)
	}
	for k, cell := range stolen {
		if want := grid[len(grid)-1-k]; cell != want {
			t.Errorf("steal %d took %s, want %s: steals take the grid's last cells, last first (stolen %v)", k, cell, want, stolen)
		}
	}
	if st := coordFleetStats(t, coordURL); st.Failovers != 0 || st.Retries != 0 {
		t.Errorf("failovers %d retries %d, want 0: a stolen cell is served where dispatch assigned it", st.Failovers, st.Retries)
	}
}

// TestCoordinatorOneSlotStealsNothing sweeps four programs at two memory
// latencies, which share each program's trace, through a one-slot
// coordinator. Every take then finds both backends idle, so each backend
// must serve exactly its own home cells: its trace recordings are exactly
// the distinct trace keys homed to it, and no trace is recorded twice.
func TestCoordinatorOneSlotStealsNothing(t *testing.T) {
	benches := []string{"crafty", "gap", "mcf", "vpr.p"}
	grid := machineGridPoints[:2]
	points := coordGridConfigs(t, grid)
	var backends [2]*serve.Server
	var handlers []http.Handler
	for b := range backends {
		backends[b] = serve.New(serve.WithWorkers(1))
		t.Cleanup(backends[b].Close)
		handlers = append(handlers, backends[b])
	}
	coordURL, coord := namedFleet(t, 1, serve.FleetConfig{}, handlers...)

	var homeTraces [2]map[string]bool
	for b := range homeTraces {
		homeTraces[b] = make(map[string]bool)
	}
	for _, bench := range benches {
		for _, pt := range points {
			b := 0
			if coord.CoordinatorHome(bench, 1, pt.Config) == "http://backend-1" {
				b = 1
			}
			ks := preexec.StageKeys(bench, 1, pt.Config)
			homeTraces[b][ks.Trace] = true
			homeTraces[b][ks.ProfileTrace] = true
		}
	}
	if len(homeTraces[0]) == 0 || len(homeTraces[1]) == 0 {
		t.Fatalf("trace homes %v leave a backend without cells", homeTraces)
	}

	body := strings.TrimSuffix(coordGridRequest(benches, grid, false, ""), "}") + `, "workers": 1}`
	status, got := post(t, coordURL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	want := singleNodeGolden(t, benches, points)
	if !bytes.Equal(got, want) {
		t.Fatalf("coordinator sweep differs from the single-node run\ncoord:  %s\nsingle: %s",
			firstDiffContext(got, want), firstDiffContext(want, got))
	}
	for b, backend := range backends {
		ts := httptest.NewServer(backend)
		var cache preexec.CacheStats
		if err := json.Unmarshal(serverStats(t, ts.URL)["cache"], &cache); err != nil {
			t.Fatal(err)
		}
		ts.Close()
		if cache.TraceRuns != int64(len(homeTraces[b])) {
			t.Errorf("backend %d recorded %d traces, want the %d trace keys homed to it", b, cache.TraceRuns, len(homeTraces[b]))
		}
	}
	if st := coordFleetStats(t, coordURL); st.Failovers != 0 {
		t.Errorf("failovers %d, want 0", st.Failovers)
	}
}
