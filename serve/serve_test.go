package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"preexec"
	"preexec/serve"
)

// smallCfg is the evaluation configuration the endpoint tests submit: the
// paper's defaults with windows small enough to keep tests fast. It decodes
// over DefaultConfig, so only the machine windows are spelled out.
const smallCfg = `{"machine": {"warm_insts": 2000, "measure_insts": 8000}}`

func newTestServer(t *testing.T, opts ...serve.Option) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.New(opts...))
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", url, err)
	}
	return resp.StatusCode, raw
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, raw
}

func serverStats(t *testing.T, base string) map[string]json.RawMessage {
	t.Helper()
	status, raw := get(t, base+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("/v1/stats: status %d: %s", status, raw)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("/v1/stats: %v", err)
	}
	return m
}

func TestWorkloadsList(t *testing.T) {
	ts := newTestServer(t)
	status, raw := get(t, ts.URL+"/v1/workloads")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var resp struct {
		Workloads []struct{ Name, Description string }
		Families  []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, w := range resp.Workloads {
		names[w.Name] = true
	}
	for _, want := range []string{"mcf", "vpr.p", "crafty"} {
		if !names[want] {
			t.Errorf("listing is missing builtin %q", want)
		}
	}
	fams := make(map[string]bool)
	for _, f := range resp.Families {
		fams[f.Name] = true
	}
	if !fams["chase"] || !fams["stride"] {
		t.Errorf("listing is missing synth families, got %v", fams)
	}
}

// TestEvaluateCoalescesIdenticalRequests is the PR's acceptance criterion:
// N concurrent identical /v1/evaluate requests perform exactly one base
// timing run and one functional profile between them, asserted through the
// /v1/stats cache counters, and every client receives byte-identical
// reports.
func TestEvaluateCoalescesIdenticalRequests(t *testing.T) {
	ts := newTestServer(t, serve.WithWorkers(4))
	const n = 8
	body := fmt.Sprintf(`{"workload": "crafty", "config": %s}`, smallCfg)

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	codes := make([]int, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: response differs from request 0", i)
		}
	}
	var rep preexec.Report
	if err := json.Unmarshal(bodies[0], &rep); err != nil {
		t.Fatalf("response is not a report: %v", err)
	}
	if rep.Program != "crafty" || rep.Base.Retired == 0 {
		t.Fatalf("unexpected report: program %q, base retired %d", rep.Program, rep.Base.Retired)
	}

	stats := serverStats(t, ts.URL)
	var cache preexec.CacheStats
	if err := json.Unmarshal(stats["cache"], &cache); err != nil {
		t.Fatal(err)
	}
	if cache.BaseRuns != 1 || cache.ProfileRuns != 1 {
		t.Errorf("%d identical requests cost %d base runs and %d profiles, want exactly 1 + 1",
			n, cache.BaseRuns, cache.ProfileRuns)
	}
	var flights struct{ Started, Coalesced int64 }
	if err := json.Unmarshal(stats["flights"], &flights); err != nil {
		t.Fatal(err)
	}
	if flights.Started+flights.Coalesced != n {
		t.Errorf("flights started %d + coalesced %d != %d requests",
			flights.Started, flights.Coalesced, n)
	}
	var reqs struct{ Completed int64 }
	if err := json.Unmarshal(stats["requests"], &reqs); err != nil {
		t.Fatal(err)
	}
	if reqs.Completed < n {
		t.Errorf("completed gauge %d, want >= %d", reqs.Completed, n)
	}
}

// TestEvaluateBuildsProgramOnce fires concurrent first requests for one
// (workload, scale), each with its own configuration so no two coalesce
// into one evaluation: they must still share one program build, observed
// once in the build-stage histogram and held once in the program memo.
func TestEvaluateBuildsProgramOnce(t *testing.T) {
	ts := newTestServer(t, serve.WithWorkers(4))
	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"workload": "gap", "config": {"machine": {"warm_insts": 2000, "measure_insts": %d}}}`, 8000+1000*i)
			resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				raw, _ := io.ReadAll(resp.Body)
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, raw)
			}
		}(i)
	}
	wg.Wait()

	if got := metricValue(t, metricsText(t, ts.URL), `preexec_stage_duration_seconds_count{stage="build"}`); got != 1 {
		t.Errorf("%d concurrent first requests built the program %d times, want 1", n, got)
	}
	stats := serverStats(t, ts.URL)
	var programs int
	if err := json.Unmarshal(stats["programs_cached"], &programs); err != nil {
		t.Fatal(err)
	}
	if programs != 1 {
		t.Errorf("programs cached = %d, want 1", programs)
	}
	var flights struct{ Started, Coalesced int64 }
	if err := json.Unmarshal(stats["flights"], &flights); err != nil {
		t.Fatal(err)
	}
	if flights.Started != n || flights.Coalesced != 0 {
		t.Errorf("flights = %+v, want %d distinct evaluations", flights, n)
	}
}

// TestSingleWorkerEvaluateReadsOneTrace runs evaluations on a one-slot
// worker pool, where a profile holding its slot while it waited for a
// trace recording would deadlock. The default profile window reads the
// base run's trace — one recording serves both stages — and a longer
// profile window records a trace of its own beside it.
func TestSingleWorkerEvaluateReadsOneTrace(t *testing.T) {
	ts := newTestServer(t, serve.WithWorkers(1))
	for i, c := range []struct {
		name                 string
		cfg                  string
		traceRuns, traceHits int64
	}{
		{"default window", smallCfg, 1, 2},
		{"longer window", `{"machine": {"warm_insts": 2000, "measure_insts": 8000}, "selection": {"profile_insts": 12000}}`, 2, 3},
	} {
		status, body := post(t, ts.URL+"/v1/evaluate", fmt.Sprintf(`{"workload": "vpr.p", "config": %s}`, c.cfg))
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, status, body)
		}
		var cache preexec.CacheStats
		if err := json.Unmarshal(serverStats(t, ts.URL)["cache"], &cache); err != nil {
			t.Fatal(err)
		}
		// Cumulative: the second evaluation shares the first's base run and
		// its trace, and records one more for its profile.
		if cache.TraceRuns != c.traceRuns || cache.TraceHits != c.traceHits || cache.ProfileRuns != int64(i+1) {
			t.Errorf("%s: cache %+v, want %d trace recordings, %d trace hits and %d profiles",
				c.name, cache, c.traceRuns, c.traceHits, i+1)
		}
	}
}

// TestEvaluateErrorMapping pins the 4xx contract: unknown workloads are 404
// with the offending field named, invalid scales and configurations 400, and
// non-POST methods 405.
func TestEvaluateErrorMapping(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name     string
		body     string
		status   int
		contains []string
	}{
		{"unknown workload", `{"workload": "nosuch"}`, http.StatusNotFound,
			[]string{"workload:", "nosuch", "valid:"}},
		{"bad scale", `{"workload": "mcf", "scale": -3}`, http.StatusBadRequest,
			[]string{"scale:", "-3"}},
		{"missing workload", `{}`, http.StatusBadRequest, []string{"workload:"}},
		{"unknown config field", `{"workload": "mcf", "config": {"machina": {}}}`,
			http.StatusBadRequest, []string{"config:", "machina"}},
		{"malformed body", `{"workload": `, http.StatusBadRequest, []string{"request body"}},
		{"trailing delimiter", `{"workload": "mcf"}]`, http.StatusBadRequest, []string{"trailing"}},
		{"unknown request field", `{"workload": "mcf", "bogus": 1}`,
			http.StatusBadRequest, []string{"bogus"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := post(t, ts.URL+"/v1/evaluate", tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (%s)", status, tc.status, raw)
			}
			var e struct{ Error string }
			if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q not of the form {\"error\": ...}", raw)
			}
			for _, want := range tc.contains {
				if !strings.Contains(e.Error, want) {
					t.Errorf("error %q does not mention %q", e.Error, want)
				}
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/evaluate: status %d, want 405", resp.StatusCode)
	}
	status, _ := get(t, ts.URL+"/v1/bogus")
	if status != http.StatusNotFound {
		t.Errorf("GET /v1/bogus: status %d, want 404", status)
	}
}

// TestUploadPRX pins the upload path end to end: a .prx source registers,
// lists, and evaluates; the 4xx mapping covers malformed sources, duplicate
// names, and contradictory bodies.
func TestUploadPRX(t *testing.T) {
	ts := newTestServer(t)
	const name = "serve.test.upload"
	t.Cleanup(func() { preexec.UnregisterWorkload(name) })

	prx := ".name " + name + `\n.data 0\n.word 5, 6, 7\nstart:\n\tli r1, 0\n\tli r2, 500\n\tli r4, 0\nloop:\n\tld r3, 0(r4)\n\taddi r1, r1, 1\n\tblt r1, r2, loop\n\thalt\n`
	status, raw := post(t, ts.URL+"/v1/workloads", `{"prx": "`+prx+`"}`)
	if status != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", status, raw)
	}
	var up struct{ Name, Description string }
	if err := json.Unmarshal(raw, &up); err != nil || up.Name != name {
		t.Fatalf("upload response %s, want name %q", raw, name)
	}

	// Registered: listed and evaluable.
	if _, raw := get(t, ts.URL+"/v1/workloads"); !bytes.Contains(raw, []byte(name)) {
		t.Errorf("uploaded workload %q not in listing", name)
	}
	status, raw = post(t, ts.URL+"/v1/evaluate",
		fmt.Sprintf(`{"workload": %q, "config": %s}`, name, smallCfg))
	if status != http.StatusOK {
		t.Fatalf("evaluate uploaded: status %d: %s", status, raw)
	}
	var rep preexec.Report
	if err := json.Unmarshal(raw, &rep); err != nil || rep.Program != name {
		t.Fatalf("evaluate uploaded: report %s", raw)
	}

	// Duplicate name: 409.
	if status, raw = post(t, ts.URL+"/v1/workloads", `{"prx": "`+prx+`"}`); status != http.StatusConflict {
		t.Errorf("duplicate upload: status %d, want 409 (%s)", status, raw)
	}
	// Malformed source: 400 with the line diagnostic.
	status, raw = post(t, ts.URL+"/v1/workloads", `{"prx": "bogus r1, r2\n"}`)
	if status != http.StatusBadRequest || !bytes.Contains(raw, []byte("prx:1")) {
		t.Errorf("malformed .prx: status %d body %s, want 400 naming prx:1", status, raw)
	}
	// A source without .name cannot register.
	status, raw = post(t, ts.URL+"/v1/workloads", `{"prx": "halt\n"}`)
	if status != http.StatusBadRequest || !bytes.Contains(raw, []byte(".name")) {
		t.Errorf("nameless .prx: status %d body %s, want 400 naming .name", status, raw)
	}
	// Contradictory and empty bodies.
	if status, _ = post(t, ts.URL+"/v1/workloads", `{"prx": "halt\n", "spec": {"family": "chase"}}`); status != http.StatusBadRequest {
		t.Errorf("prx+spec: status %d, want 400", status)
	}
	if status, _ = post(t, ts.URL+"/v1/workloads", `{}`); status != http.StatusBadRequest {
		t.Errorf("empty upload: status %d, want 400", status)
	}
}

// TestUploadLimitAndOversizeBody pins the two abuse bounds of the upload
// path: the per-server registration cap answers 429, and an over-limit
// request body answers 413 (not a retryable-looking 400). Both backpressure
// responses carry Retry-After so fleet clients can pace themselves instead
// of hammering a saturated backend.
func TestUploadLimitAndOversizeBody(t *testing.T) {
	ts := newTestServer(t)

	// postResp is post() plus header access, for the Retry-After asserts.
	postResp := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/workloads", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Oversize body: just past the 64MB reader limit.
	huge := `{"prx": "` + strings.Repeat("; filler\\n", 8<<20) + `halt\n"}`
	resp := postResp(huge)
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: status %d, want 413 (%.120s)", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("413 response has no Retry-After header")
	}

	// Registration cap: exhaust the per-server budget with tiny uploads.
	var registered []string
	t.Cleanup(func() {
		for _, name := range registered {
			preexec.UnregisterWorkload(name)
		}
	})
	for i := 0; ; i++ {
		name := fmt.Sprintf("serve.test.cap%d", i)
		resp := postResp(fmt.Sprintf(`{"prx": ".name %s\nhalt\n"}`, name))
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode == http.StatusCreated {
			registered = append(registered, name)
			if len(registered) > 300 {
				t.Fatal("no upload cap engaged after 300 registrations")
			}
			continue
		}
		if resp.StatusCode != http.StatusTooManyRequests || !bytes.Contains(raw, []byte("upload limit")) {
			t.Fatalf("upload %d: status %d body %s, want 429 naming the upload limit",
				i, resp.StatusCode, raw)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Error("429 response has no Retry-After header")
		}
		break
	}
	if len(registered) != 256 {
		t.Errorf("cap engaged after %d uploads, want 256", len(registered))
	}
}

// TestUploadSpec registers a synth.Spec and sweeps it together with a
// builtin.
func TestUploadSpec(t *testing.T) {
	ts := newTestServer(t)
	const name = "serve.test.spec"
	t.Cleanup(func() { preexec.UnregisterWorkload(name) })

	status, raw := post(t, ts.URL+"/v1/workloads",
		fmt.Sprintf(`{"spec": {"name": %q, "family": "stride", "seed": 3, "footprint_words": 8192, "iters": 3000}}`, name))
	if status != http.StatusCreated {
		t.Fatalf("spec upload: status %d: %s", status, raw)
	}
	// Invalid knobs surface the synth validation message.
	status, raw = post(t, ts.URL+"/v1/workloads",
		`{"spec": {"family": "stride", "seed": 1, "footprint_words": 100, "iters": 10}}`)
	if status != http.StatusBadRequest || !bytes.Contains(raw, []byte("FootprintWords")) {
		t.Errorf("invalid spec: status %d body %s, want 400 naming FootprintWords", status, raw)
	}
	// Unknown spec fields are rejected, not ignored.
	status, raw = post(t, ts.URL+"/v1/workloads", `{"spec": {"family": "stride", "bogus_knob": 1}}`)
	if status != http.StatusBadRequest || !bytes.Contains(raw, []byte("bogus_knob")) {
		t.Errorf("unknown spec field: status %d body %s, want 400 naming bogus_knob", status, raw)
	}

	body := fmt.Sprintf(`{"benches": [%q, "crafty"], "points": [{"name": "base", "config": %s}]}`, name, smallCfg)
	status, raw = post(t, ts.URL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("sweep with uploaded spec: status %d: %s", status, raw)
	}
	var res preexec.SweepResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 || res.Cells[0].Bench != name {
		t.Fatalf("sweep cells %v, want 2 cells starting with %q", res.Cells, name)
	}
}

func TestSweepErrorMapping(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name     string
		body     string
		status   int
		contains string
	}{
		{"unknown bench", `{"benches": ["crafty", "nosuch"]}`, http.StatusNotFound, "benches[1]"},
		{"bad scale", `{"benches": ["crafty"], "scale": -1}`, http.StatusBadRequest, "scale:"},
		{"unnamed point", `{"benches": ["crafty"], "points": [{"config": {}}]}`,
			http.StatusBadRequest, "points[0].name"},
		{"bad point config", `{"benches": ["crafty"], "points": [{"name": "x", "config": {"bogus": 1}}]}`,
			http.StatusBadRequest, "points[0].config"},
		{"bad format", `{"benches": ["crafty"], "format": "xml"}`, http.StatusBadRequest, "format"},
		{"csv stream", `{"benches": ["crafty"], "format": "csv", "stream": true}`,
			http.StatusBadRequest, "stream"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := post(t, ts.URL+"/v1/sweep", tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (%s)", status, tc.status, raw)
			}
			if !bytes.Contains(raw, []byte(tc.contains)) {
				t.Errorf("error %s does not mention %q", raw, tc.contains)
			}
		})
	}
}

// TestSweepStreaming reads the NDJSON progress stream: one cell event per
// completed cell, then the full result.
func TestSweepStreaming(t *testing.T) {
	ts := newTestServer(t, serve.WithWorkers(2))
	body := fmt.Sprintf(`{"benches": ["crafty", "gap"], "stream": true,
		"points": [{"name": "base", "config": %s}]}`, smallCfg)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q, want application/x-ndjson", ct)
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
		default:
			t.Errorf("unexpected event %q", ev.Event)
		}
	}
	if cells != 2 || !sawResult {
		t.Fatalf("stream had %d cell events (want 2), result %v", cells, sawResult)
	}
}

// TestProgramCacheBounded: the (workload, scale) program cache is a
// client-controlled axis, so it must stay bounded — scanning scales cannot
// grow server memory without limit.
func TestProgramCacheBounded(t *testing.T) {
	ts := newTestServer(t)
	// Well past the bound: 70 distinct scales of one workload. Tiny windows
	// keep each (cached-after-first-stage) evaluation cheap.
	for scale := 1; scale <= 70; scale++ {
		body := fmt.Sprintf(`{"workload": "crafty", "scale": %d, "config": {"machine": {"warm_insts": 500, "measure_insts": 1500}}}`, scale)
		if status, raw := post(t, ts.URL+"/v1/evaluate", body); status != http.StatusOK {
			t.Fatalf("scale %d: status %d: %s", scale, status, raw)
		}
	}
	stats := serverStats(t, ts.URL)
	var programs int
	if err := json.Unmarshal(stats["programs_cached"], &programs); err != nil {
		t.Fatal(err)
	}
	if programs > 64 {
		t.Fatalf("program cache holds %d entries, want <= 64", programs)
	}
	if programs < 32 {
		t.Fatalf("program cache holds %d entries; expected it near its bound after 70 scales", programs)
	}
}

func TestSweepCSV(t *testing.T) {
	ts := newTestServer(t)
	body := fmt.Sprintf(`{"benches": ["crafty"], "format": "csv",
		"points": [{"name": "base", "config": %s}]}`, smallCfg)
	status, raw := post(t, ts.URL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "bench,point,base_ipc") {
		t.Fatalf("csv output %q, want header + one row", raw)
	}
	if !strings.HasPrefix(lines[1], "crafty,base,") {
		t.Errorf("csv row %q, want crafty,base,...", lines[1])
	}
}
