package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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
