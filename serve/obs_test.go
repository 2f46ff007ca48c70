package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"preexec"
	"preexec/internal/fleet"
	"preexec/internal/fleet/chaos"
	"preexec/internal/obs"
	"preexec/serve"
)

// tracedSweep posts a sweep with ?trace=1 and returns the response status,
// body, and the trace ID echoed on the X-Preexec-Trace header.
func tracedSweep(t *testing.T, base, body string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweep?trace=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes(), resp.Header.Get(obs.TraceHeader)
}

// fetchSpans reads GET /v1/spans?trace= as parsed spans.
func fetchSpans(t *testing.T, base, trace string) []obs.Span {
	t.Helper()
	resp, err := http.Get(base + "/v1/spans?trace=" + trace)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/spans: status %d", resp.StatusCode)
	}
	spans, err := obs.ReadNDJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestSweepGoldenBitIdenticalTraced is the tracing half of the golden
// discipline: a sweep with span recording on returns the exact bytes of a
// direct library run — spans travel only through the header/endpoint side
// channel — and that side channel actually carries the stage timeline.
func TestSweepGoldenBitIdenticalTraced(t *testing.T) {
	ts := newTestServer(t, serve.WithWorkers(2))
	body := fmt.Sprintf(`{"benches": ["crafty", "mcf"], "points": [{"name": "a", "config": %s}]}`, smallCfg)
	status, got, trace := tracedSweep(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	if trace == "" {
		t.Fatal("traced sweep response has no X-Preexec-Trace header")
	}

	cfg := preexec.DefaultConfig()
	if err := json.Unmarshal([]byte(smallCfg), &cfg); err != nil {
		t.Fatal(err)
	}
	want := singleNodeGolden(t, []string{"crafty", "mcf"}, []preexec.ConfigPoint{{Name: "a", Config: cfg}})
	if !bytes.Equal(got, want) {
		t.Fatalf("traced sweep differs from the untraced library run\ntraced: %s\nplain:  %s",
			firstDiffContext(got, want), firstDiffContext(want, got))
	}

	spans := fetchSpans(t, ts.URL, trace)
	byName := make(map[string]int)
	for _, sp := range spans {
		if sp.Trace != trace {
			t.Errorf("span %s belongs to trace %s, asked for %s", sp.ID, sp.Trace, trace)
		}
		byName[sp.Name]++
	}
	if byName["sweep"] != 1 {
		t.Errorf("spans %v: want exactly one sweep root", byName)
	}
	// Two previously-unseen benchmarks, one point: one trace recording, one
	// base run, one profile and one selection each. Only one of the two
	// selects p-threads; the other's pre-execution run is its base run, so
	// one p-thread run is replayed.
	for _, stage := range []string{"stage:base", "stage:profile", "stage:select", "stage:trace"} {
		if byName[stage] != 2 {
			t.Errorf("spans %v: want 2 %s spans", byName, stage)
		}
	}
	if byName["stage:replay"] != 1 {
		t.Errorf("spans %v: want 1 stage:replay span", byName)
	}

	// An untraced request must record nothing: same server, no ?trace=1.
	status, _ = post(t, ts.URL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("untraced sweep status %d", status)
	}
	if n := len(spans); len(fetchSpans(t, ts.URL, trace)) != n {
		t.Error("untraced sweep recorded spans into an old trace")
	}
}

// TestMetricsEndpoint checks GET /metrics renders the core families with
// values consistent with the work the server just did, and agrees with
// /v1/stats (both read the same objects).
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, serve.WithWorkers(3))
	body := fmt.Sprintf(`{"benches": ["crafty"], "points": [{"name": "a", "config": %s}]}`, smallCfg)
	if status, out := post(t, ts.URL+"/v1/sweep", body); status != http.StatusOK {
		t.Fatalf("sweep status %d: %s", status, out)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	text := buf.String()

	metric := func(series string) int64 {
		t.Helper()
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, series+" "); ok {
				v, err := strconv.ParseInt(rest, 10, 64)
				if err != nil {
					t.Fatalf("series %s: value %q: %v", series, rest, err)
				}
				return v
			}
		}
		t.Fatalf("series %s not rendered:\n%s", series, text)
		return 0
	}

	if got := metric(`preexec_stage_duration_seconds_count{stage="base"}`); got != 1 {
		t.Errorf("base stage count = %d, want 1", got)
	}
	// One recording serves both timing runs: the base run and the p-thread
	// run each replay it.
	if got := metric(`preexec_stage_duration_seconds_count{stage="trace"}`); got != 1 {
		t.Errorf("trace stage count = %d, want 1", got)
	}
	if got := metric(`preexec_stage_duration_seconds_count{stage="replay"}`); got != 1 {
		t.Errorf("replay stage count = %d, want 1", got)
	}
	if got := metric(`preexec_stage_cache_runs_total{stage="base"}`); got != 1 {
		t.Errorf("base cache runs = %d, want 1", got)
	}
	if got := metric(`preexec_stage_cache_runs_total{stage="trace"}`); got != 1 {
		t.Errorf("trace cache runs = %d, want 1", got)
	}
	if got := metric(`preexec_gate_workers`); got != 3 {
		t.Errorf("gate workers = %d, want 3", got)
	}
	if got := metric(`preexec_programs_cached`); got != 1 {
		t.Errorf("programs cached = %d, want 1", got)
	}
	// The completed counter must match /v1/stats' requests.completed read a
	// moment later: 1 sweep + 1 /metrics, then the stats request itself is
	// still in flight when it reads the gauge.
	completedAtScrape := metric(`preexec_requests_completed_total`)
	if completedAtScrape < 1 {
		t.Errorf("requests completed = %d after a sweep", completedAtScrape)
	}
	stats := serverStats(t, ts.URL)
	var reqs struct {
		InFlight  int64 `json:"in_flight"`
		Completed int64 `json:"completed"`
	}
	if err := json.Unmarshal(stats["requests"], &reqs); err != nil {
		t.Fatal(err)
	}
	if reqs.Completed != completedAtScrape+1 || reqs.InFlight != 1 {
		t.Errorf("stats requests = %+v, want completed %d and the stats request itself in flight",
			reqs, completedAtScrape+1)
	}
}

// TestCoordinatorTraceStitchingChaos drives the ejection-golden fault
// scenario with tracing on: the merged bytes still match the single-node
// run, and the collected trace shows the full cross-node story — a route
// span per cell, retried forwards under the faulty backend, and the
// backends' own spans imported with their node tags.
func TestCoordinatorTraceStitchingChaos(t *testing.T) {
	coordURL, coord, proxies := coordFleet(t, 3, serve.FleetConfig{
		ProbeInterval: -1,
		Fleet: fleet.Config{
			BackoffBase: time.Millisecond,
			BackoffMax:  5 * time.Millisecond,
		},
	})

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
	proxies[target].SetSchedule(chaos.Schedule{
		Plan: []chaos.Fault{{Kind: chaos.None}},
		Then: chaos.Fault{Kind: chaos.Kill},
	})

	status, got, trace := tracedSweep(t, coordURL, coordGridRequest(coordGridBenches, coordGridPoints, false, ""))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	if trace == "" {
		t.Fatal("no trace ID on the response")
	}
	want := singleNodeGolden(t, coordGridBenches, points)
	if !bytes.Equal(got, want) {
		t.Fatalf("traced chaos sweep differs from the single-node run\ncoord:  %s\nsingle: %s",
			firstDiffContext(got, want), firstDiffContext(want, got))
	}

	spans := fetchSpans(t, coordURL, trace)
	routes := make(map[string]obs.Span) // route span ID -> span
	forwardsPerRoute := make(map[string]int)
	var sweepRoot obs.Span
	backendSweeps := 0
	stitchedNodes := make(map[string]bool)
	for _, sp := range spans {
		switch {
		case sp.Name == "sweep" && sp.Node == "":
			sweepRoot = sp
		case sp.Name == "route":
			routes[sp.ID] = sp
		case sp.Name == "forward":
			forwardsPerRoute[sp.Parent]++
			if sp.Attrs["backend"] == "" {
				t.Errorf("forward span %s has no backend attribute", sp.ID)
			}
		case sp.Node != "":
			stitchedNodes[sp.Node] = true
			if sp.Name == "sweep" {
				backendSweeps++
			}
		}
	}
	cells := len(coordGridBenches) * len(coordGridPoints)
	if sweepRoot.ID == "" {
		t.Fatal("no coordinator sweep root span")
	}
	if len(routes) != cells {
		t.Fatalf("%d route spans, want one per cell (%d)", len(routes), cells)
	}
	retriedCells := 0
	for id, rt := range routes {
		if rt.Parent != sweepRoot.ID {
			t.Errorf("route %s parented to %q, want the sweep root %s", id, rt.Parent, sweepRoot.ID)
		}
		n := forwardsPerRoute[id]
		if n < 1 {
			t.Errorf("route %s (%s) has no forward spans", id, rt.Attrs["cell"])
		}
		if n > 1 {
			retriedCells++
		}
		if rt.Attrs["attempts"] != obs.AttrInt(n) {
			t.Errorf("route %s records attempts=%q but has %d forward spans", id, rt.Attrs["attempts"], n)
		}
	}
	// The chaos backend killed at least its second request, so at least one
	// cell needed a second forward.
	if retriedCells == 0 {
		t.Error("chaos run produced no multi-forward route span")
	}
	// Every live backend served at least one cell of this 9-cell grid (the
	// dead one may or may not have completed its first before the kill), so
	// stitching must have imported spans from at least the two survivors,
	// each wrapped in that backend's own sweep span.
	if len(stitchedNodes) < 2 {
		t.Errorf("stitched spans from %v, want at least the two live backends", stitchedNodes)
	}
	if backendSweeps < 2 {
		t.Errorf("%d imported backend sweep spans, want >= 2", backendSweeps)
	}
	for node := range stitchedNodes {
		if _, ok := proxies[node]; !ok {
			t.Errorf("stitched span node %q is not a backend address", node)
		}
	}
}

// TestSpansEndpointValidation: the span endpoint requires a trace parameter
// and answers an unknown trace with an empty body rather than an error.
func TestSpansEndpointValidation(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing trace param: status %d, want 400", resp.StatusCode)
	}
	if spans := fetchSpans(t, ts.URL, "deadbeef"); len(spans) != 0 {
		t.Errorf("unknown trace returned %d spans", len(spans))
	}
}
