package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"preexec"
	"preexec/internal/obs"
)

// render serializes every input a workload run feeds the system.
func render(t *testing.T, in inputs) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Sweep []byte
		Specs any
		Hot   []evalCell
		Cold  []evalCell
		Order []int
	}{in.sweepBody(), in.specs, in.hot, in.cold, in.order})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed uint64) []byte {
			in, err := genInputs(w.name, seed)
			if err != nil {
				t.Fatal(err)
			}
			return render(t, in)
		}
		if !bytes.Equal(gen(1), gen(1)) {
			t.Errorf("%s: seed 1 gave different inputs on two draws", w.name)
		}
		if bytes.Equal(gen(1), gen(2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w.name)
		}
	}
}

// TestInputShapes pins the grid sizes the README and the run-time budget
// rely on.
func TestInputShapes(t *testing.T) {
	cells := map[string]int{"sweep_select": 240, "sweep_slice": 80, "sweep_machine": 84, "fleet_sweep": 80}
	for name, want := range cells {
		in, err := genInputs(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if got := (len(in.benches) + len(in.specs)) * len(in.points); got != want {
			t.Errorf("%s: %d cells, want %d", name, got, want)
		}
	}
	in, err := genInputs("serve_evaluate", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.hot) != 20 || len(in.order) != streamLen {
		t.Errorf("serve_evaluate: %d hot cells and %d requests", len(in.hot), len(in.order))
	}
	seen := make(map[string]bool)
	for _, k := range in.order {
		if k >= 0 {
			continue
		}
		c := in.cold[-1-k]
		key := string(c.body())
		if seen[key] {
			t.Fatalf("cold cell %s repeats", key)
		}
		seen[key] = true
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	f := readBenchmarkFile(t)
	if f.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, --seconds default %d", f.RunSeconds, runSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, implemented %q", i, w.Name, workloads[i].name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end %d: declared %+v, implemented %s %s %s %v", i, m, want.name, want.unit, want.better, want.bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer %d: declared %+v, implemented %s %s %s", i, m, want.name, want.unit, want.better)
		}
	}
}

func TestMetricNames(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.EndToEnd) > 16 || len(f.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(f.EndToEnd), len(f.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !name.MatchString(m.name) || !unit.MatchString(m.unit) || seen[m.name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", m.name, m.unit)
		}
		seen[m.name] = true
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better %q", m.name, m.better)
		}
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v", m.name, m.bound)
		}
		if m.name != "setup_s" && m.bound >= endToEnd[0].bound {
			t.Errorf("%s's bound %v is not below setup_s's %v", m.name, m.bound, endToEnd[0].bound)
		}
	}
	for _, w := range f.Workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or reason", w.Name)
		}
	}
}

// TestLayersNameTheirEffect requires every per-layer metric to name the
// end-to-end metric and the workload a change to its layer should move.
func TestLayersNameTheirEffect(t *testing.T) {
	metrics := make(map[string]bool)
	for _, m := range endToEnd {
		metrics[m.name] = true
	}
	names := make(map[string]bool)
	for _, w := range workloads {
		names[w.name] = true
	}
	for _, m := range perLayer {
		if len(m.moves) == 0 {
			t.Errorf("%s names no end-to-end metric it moves", m.name)
		}
		for _, mv := range m.moves {
			metric, wl, ok := strings.Cut(mv, "@")
			if !ok || !metrics[metric] || !names[wl] {
				t.Errorf("%s: %q is not an end-to-end metric@workload", m.name, mv)
			}
		}
	}
}

// TestAllocMeterAllocatesNothing pins the probe's premise: the meter's own
// bookkeeping adds no allocation to the stage it measures.
func TestAllocMeterAllocatesNothing(t *testing.T) {
	a := newAllocMeter()
	if n := testing.AllocsPerRun(10, func() { a.StageStart("replay", "b")() }); n != 0 {
		t.Errorf("%v allocations per observed stage", n)
	}
	if a.calls[stReplay] == 0 || a.allocs[stReplay] != 0 {
		t.Errorf("%d calls charged %d allocations", a.calls[stReplay], a.allocs[stReplay])
	}
}

// TestHandlerSpans checks the span tree of a traced request: the client's
// span parents the handler span, and the wrapped server sees the handler
// span as the parent of its own spans.
func TestHandlerSpans(t *testing.T) {
	tr := newTracing(1, "test")
	var seen string
	m := &handlerMeter{h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = r.Header.Get(obs.TraceHeader)
	})}
	m.trace.Store(tr)
	req := tr.start("", "request")
	r := httptest.NewRequest(http.MethodPost, "/v1/evaluate", nil)
	r.Header.Set(obs.TraceHeader, tr.header(req))
	m.ServeHTTP(httptest.NewRecorder(), r)
	req.End()

	spans, err := tr.spans()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[1].Name != "handler /v1/evaluate" || spans[1].Parent != spans[0].ID {
		t.Fatalf("spans %+v", spans)
	}
	if want := obs.FormatTraceHeader(tr.trace, spans[1].ID); seen != want {
		t.Errorf("server saw trace header %q, want %q", seen, want)
	}
	if tr.t.handler <= 0 {
		t.Error("handler time not tallied")
	}

	// A request of another trace, or any request while tracing is off,
	// passes through unrecorded.
	r.Header.Set(obs.TraceHeader, "00ff")
	m.ServeHTTP(httptest.NewRecorder(), r)
	m.trace.Store(nil)
	m.ServeHTTP(httptest.NewRecorder(), r)
	if spans, _ := tr.spans(); len(spans) != 2 {
		t.Errorf("%d spans after untraced requests", len(spans))
	}
}

// fakeSystem stands in for a workload's system in metric-set tests.
type fakeSystem struct{ system }

func (fakeSystem) buildCount() (int, time.Duration) { return 1, time.Millisecond }

// TestEmittedMetricSets requires each mode of a run to emit exactly the
// metrics BENCHMARK.json declares for it.
func TestEmittedMetricSets(t *testing.T) {
	m := measurement{reps: []repResult{{wall: time.Second, cells: 10, latencies: []float64{1, 2, 3}}}, heapBytes: 1 << 20}
	check := func(table []metric, vals map[string]float64) {
		t.Helper()
		got := make([]string, 0, len(vals))
		for name := range vals {
			got = append(got, name)
		}
		want := make([]string, 0, len(table))
		for _, m := range table {
			want = append(want, m.name)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Errorf("emitted %v, declared %v", got, want)
		}
		if _, err := collect(table, vals); err != nil {
			t.Error(err)
		}
	}
	check(endToEnd, endToEndMetrics([]float64{1, 2, 3}, m))
	check(perLayer, layerMetrics(&tally{}, m, m, fakeSystem{}, probe{}, []preexec.Report{{}}))

	vals := endToEndMetrics([]float64{1}, m)
	delete(vals, "setup_s")
	if _, err := collect(endToEnd, vals); err == nil {
		t.Error("collect accepted a missing metric")
	}
	vals = endToEndMetrics([]float64{1}, m)
	vals["extra"] = 1
	if _, err := collect(endToEnd, vals); err == nil {
		t.Error("collect accepted an undeclared metric")
	}
}

func TestCellClock(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	c := &cellClock{start: t0, workers: 2, end: make(map[int]time.Time)}
	// Cells 0 and 1 start at 0; cell 2 takes the worker freed at 10 (cell
	// 1), cell 3 the one freed at 30 (cell 0).
	for _, ev := range []struct{ i, at int }{{1, 10}, {0, 30}, {2, 35}, {3, 50}} {
		c.done = append(c.done, at(ev.at))
		c.end[ev.i] = at(ev.at)
	}
	if got, want := c.latencies(4), []float64{30, 10, 25, 20}; !slices.Equal(got, want) {
		t.Errorf("latencies %v, want %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v", q)
	}
	if q := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9); q != 10 {
		t.Errorf("p90 %v", q)
	}
}

func TestCheckReport(t *testing.T) {
	good := preexec.Report{Program: "p", Config: preexec.DefaultConfig()}
	good.Base = preexec.Stats{Retired: 120000, Cycles: 100}
	good.Pre = good.Base
	if err := checkReport(good); err != nil {
		t.Fatalf("good report: %v", err)
	}
	bad := good
	bad.Pre.Retired += 100
	if checkReport(bad) == nil {
		t.Error("accepted pre-execution retiring a different stream")
	}
	bad = good
	bad.Pre.MissesCovered, bad.Pre.MissesFullCovered = 1, 2
	if checkReport(bad) == nil {
		t.Error("accepted more full coverage than coverage")
	}
	bad = good
	bad.Pre.Cycles = 90
	if checkReport(bad) == nil {
		t.Error("accepted an empty selection that changed the timing run")
	}
}
