// Command bench is the repository's benchmark: five seeded workloads over
// the library sweep, the evaluation service and the sweep fleet. It prints
// every metric by name with its unit, checks every output, and ends with
// one JSON result line.
//
//	bash bench/run.sh --workload sweep_select --seed 1 --seconds 16 --trace 0
//
// --trace 1 adds a traced measurement and prints the per-layer metrics
// instead; its spans are written as NDJSON (see --spans). Without
// --workload every workload runs in turn. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"preexec"
	"preexec/internal/obs"
)

// system is one workload's system under test, built by its set-up.
type system interface {
	// rep runs one repetition; tr is non-nil in the traced measurement.
	rep(ctx context.Context, tr *tracing) (repResult, error)
	// verify compares outputs across paths once per run and returns how
	// many comparisons it made and the failed ones.
	verify(ctx context.Context, seed uint64) (int, []error)
	// outputs returns the run's deterministic reports, in input order, and
	// their digest.
	outputs() ([]preexec.Report, string, error)
	// firstCell is the workload's first input, for the allocation probe.
	firstCell() (*preexec.Program, preexec.Config)
	// buildCount is the program builds of one fresh system.
	buildCount() (int, time.Duration)
	close()
}

// repResult is one repetition's outcome.
type repResult struct {
	wall      time.Duration
	cells     int
	latencies []float64 // per-cell, ms
	failures  []error
	reports   []preexec.Report
}

type workload struct {
	name, why string
	setup     func(context.Context, inputs) (system, error)
	// heapAt is the repetition after which an untraced run reads the
	// retained heap; the run measures at least that many repetitions.
	heapAt int
}

// workloads are the benchmark's workloads; BENCHMARK.json lists the same
// names and reasons. A library sweep repetition and a fleet repetition
// start from fresh caches, so the heap after the first equals the heap
// after any later one; the evaluation service keeps its cache across
// repetitions, so its heap is read after a fixed 1000 requests.
var workloads = []workload{
	{"sweep_select", "selection-knob grid: trace-replay, stage-cache hits and the selector; control for sweep_slice and sweep_machine", setupSweep, 1},
	{"sweep_slice", "scope x length grid (paper Fig. 4): every point profiles anew, so slice-tree profiling dominates", setupSweep, 1},
	{"sweep_machine", "memory latency x width over built-ins and the synth zoo: every cell misses base and trace caches", setupSweep, 1},
	{"serve_evaluate", "2 closed-loop clients on /v1/evaluate, 80% hot cells and 20% cold: HTTP/JSON, coalescing, the worker gate", setupServe, heapRequests / serveBatch},
	{"fleet_sweep", "coordinator-routed /v1/sweep over 2 single-worker backends: routing, forwarding and merge", setupFleet, 1},
}

// A run times its set-up in at least minSetupRounds rounds, adding rounds
// while set-up has taken less than setupBudget seconds in all; setup_s is
// the median round. A round repeats the set-up until it has lasted
// setupRound seconds and counts the mean. The first round builds the
// system the run measures; the others build and close a spare one after
// each repetition of the untraced measurement, and after it if rounds are
// still due. A library sweep's set-up builds its programs in about 12 ms,
// and a shared host has slow phases, from a fraction of a second to
// several seconds long, that make such a set-up up to twice as slow:
// rounds back to back at the start of a run all land in the same phase,
// while rounds spread over the run sample its phases as the repetitions
// do, and a round's mean moves in proportion to the slow time it holds
// where a median of single set-ups would flip.
const (
	minSetupRounds = 3
	setupBudget    = 1.0
	setupRound     = 0.15
)

// runSeconds is the default measurement time, BENCHMARK.json's run_seconds.
const runSeconds = 16

// runTimeout bounds one workload run, builds excluded.
const runTimeout = 170 * time.Second

type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	spans   string
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all, in turn)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", runSeconds, "measurement time per run, in seconds")
	trace := flag.Int("trace", 0, "1: traced run, printing the per-layer metrics")
	spans := flag.String("spans", "", "NDJSON span file of a traced run (default .bench_build/spans-<workload>-<seed>.ndjson)")
	flag.Parse()
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: --trace takes 0 or 1, --seconds a positive number")
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, spans: *spans}

	var run []workload
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	ok := true
	for _, w := range run {
		res, err := runWorkload(w, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func runWorkload(w workload, o options) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	in, err := genInputs(w.name, o.seed)
	if err != nil {
		return nil, err
	}
	setups := &setupTimer{w: w, in: in}
	sys, err := setups.round(ctx)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer sys.close()

	// A traced run splits its time between an untraced and a traced
	// measurement and reports no retained heap.
	budget, heapAt := o.seconds, w.heapAt
	if o.trace {
		budget, heapAt = budget/2, 0
	}
	plain, err := measure(ctx, sys, budget, heapAt, nil, setups.spare)
	if err != nil {
		return nil, err
	}
	for setups.due() {
		if err := setups.spare(ctx); err != nil {
			return nil, err
		}
	}
	var tr *tracing
	var traced measurement
	if o.trace {
		tr = newTracing(o.seed, w.name)
		if traced, err = measure(ctx, sys, budget, 0, tr, nil); err != nil {
			return nil, err
		}
	}

	checks, failures := sys.verify(ctx, o.seed)
	reports, digest, err := sys.outputs()
	if err != nil {
		failures = append(failures, err)
	}
	attempted := checks + len(reports) + plain.cells() + traced.cells()
	for _, rep := range reports {
		failures = appendInvalid(failures, rep)
	}
	for _, m := range []measurement{plain, traced} {
		for _, r := range m.reps {
			failures = append(failures, r.failures...)
			for _, rep := range r.reports {
				failures = appendInvalid(failures, rep)
			}
		}
	}
	for _, err := range failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAIL: %v\n", w.name, err)
	}

	fmt.Printf("# %s seed=%d: %d repetitions, %d cells, %d latency samples, %d set-up rounds\n",
		w.name, o.seed, len(plain.reps), plain.cells(), len(plain.latencies()), len(setups.rounds))
	fmt.Printf("output_digest %s\n", digest)
	speedup, coverage, ipcErr := modelMeans(reports)
	fmt.Printf("# simulated: speedup %.4f%%, coverage %.4f%%, model IPC error %.4f%%\n", speedup, coverage, ipcErr)

	table, vals := endToEnd, endToEndMetrics(setups.rounds, plain)
	if o.trace {
		prog, cfg := sys.firstCell()
		p, err := probeLayers(ctx, prog, cfg)
		if err != nil {
			return nil, err
		}
		table, vals = perLayer, layerMetrics(tr.t, plain, traced, sys, p, reports)
		spans, err := tr.spans()
		if err != nil {
			return nil, err
		}
		if err := writeSpans(o.spansPath(w.name), spans); err != nil {
			return nil, err
		}
	}
	out, err := collect(table, vals)
	if err != nil {
		return nil, err
	}
	for _, m := range table {
		fmt.Printf("%s %.6g %s\n", m.name, out[m.name].Value, m.unit)
	}
	return &result{Correct: len(failures) == 0, Attempted: attempted, Failed: len(failures), Metrics: out}, nil
}

// setupTimer times a workload's set-up in rounds.
type setupTimer struct {
	w      workload
	in     inputs
	rounds []float64 // each round's mean set-up time, in seconds
	total  float64
}

// round sets the system up, after a GC so the round pays for no earlier
// garbage, as often as fits in setupRound seconds, and returns the last
// system; it closes the others.
func (t *setupTimer) round(ctx context.Context) (system, error) {
	runtime.GC()
	start := time.Now()
	var sys system
	n := 0
	for n == 0 || time.Since(start).Seconds() < setupRound {
		if sys != nil {
			sys.close()
		}
		var err error
		if sys, err = t.w.setup(ctx, t.in); err != nil {
			return nil, err
		}
		n++
	}
	d := time.Since(start).Seconds()
	t.rounds = append(t.rounds, d/float64(n))
	t.total += d
	return sys, nil
}

func (t *setupTimer) due() bool {
	return len(t.rounds) < minSetupRounds || t.total < setupBudget
}

// spare runs one more round if one is due and closes its system, with a
// GC after so the next repetition does not collect it.
func (t *setupTimer) spare(ctx context.Context) error {
	if !t.due() {
		return nil
	}
	sys, err := t.round(ctx)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	sys.close()
	runtime.GC()
	return nil
}

func appendInvalid(failures []error, r preexec.Report) []error {
	if err := checkReport(r); err != nil {
		return append(failures, err)
	}
	return failures
}

// endToEndMetrics derives the end-to-end metrics of an untraced run.
func endToEndMetrics(setups []float64, m measurement) map[string]float64 {
	lat := m.latencies()
	return map[string]float64{
		"setup_s":          median(setups),
		"cells_per_s":      m.cellsPerSec(),
		"latency_p50_ms":   quantile(lat, 0.5),
		"latency_p90_ms":   quantile(lat, 0.9),
		"retained_heap_mb": float64(m.heapBytes) / (1 << 20),
	}
}

// measurement is the repetitions of one measured phase, with the
// process-wide allocation and GC counters around it.
type measurement struct {
	reps            []repResult
	allocBytes      uint64
	gcCPU, totalCPU float64
	// heapBytes is HeapAlloc after a GC following repetition heapAt.
	heapBytes uint64
}

// measure runs whole repetitions until budget has passed and at least
// heapAt repetitions have run. With heapAt > 0 it reads the retained heap
// after repetition heapAt, between two repetitions, while the system
// still holds that repetition's state. A non-nil between runs after every
// repetition, untimed but inside the budget.
func measure(ctx context.Context, sys system, budget time.Duration, heapAt int, tr *tracing, between func(context.Context) error) (measurement, error) {
	var m measurement
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, cpu0 := cpuSeconds()
	start := time.Now()
	for len(m.reps) == 0 || len(m.reps) < heapAt || time.Since(start) < budget {
		if err := ctx.Err(); err != nil {
			return m, err
		}
		r, err := sys.rep(ctx, tr)
		if err != nil {
			return m, err
		}
		m.reps = append(m.reps, r)
		if len(m.reps) == heapAt {
			runtime.GC()
			var mem runtime.MemStats
			runtime.ReadMemStats(&mem)
			m.heapBytes = mem.HeapAlloc
		}
		if between != nil {
			if err := between(ctx); err != nil {
				return m, err
			}
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	gc1, cpu1 := cpuSeconds()
	m.allocBytes = after.TotalAlloc - before.TotalAlloc
	m.gcCPU, m.totalCPU = gc1-gc0, cpu1-cpu0
	return m, nil
}

// cpuSeconds reads the runtime's estimate of GC and total CPU time.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func (m measurement) cells() int {
	n := 0
	for _, r := range m.reps {
		n += r.cells
	}
	return n
}

// cellsPerSec is the median over repetitions of each repetition's rate.
func (m measurement) cellsPerSec() float64 {
	rates := make([]float64, len(m.reps))
	for i, r := range m.reps {
		rates[i] = float64(r.cells) / r.wall.Seconds()
	}
	return median(rates)
}

func (m measurement) latencies() []float64 {
	var out []float64
	for _, r := range m.reps {
		out = append(out, r.latencies...)
	}
	return out
}

// layerMetrics derives the per-layer metrics of a traced measurement m,
// against the same run's untraced measurement plain.
func layerMetrics(t *tally, plain, m measurement, sys system, p probe, reports []preexec.Report) map[string]float64 {
	v := map[string]float64{"bench.trace_overhead_pct": (ratio(plain.cellsPerSec(), m.cellsPerSec()) - 1) * 100}
	builds, buildTime := sys.buildCount()
	v["workload.build_calls"] = float64(builds)
	v["workload.build_ms"] = ms(buildTime)

	stage := func(st int) (calls, busyMS float64) {
		return float64(t.stage[st].calls.Load()), float64(t.stage[st].busyNs.Load()) / 1e6
	}
	minstPerS := func(st int) float64 {
		calls, busy := stage(st)
		return ratio(calls*float64(windowInsts())/1e6, busy/1e3)
	}
	var busyAll float64
	for st := range stageNames {
		_, b := stage(st)
		busyAll += b
	}
	calls, busy := stage(stProfile)
	v["slice.profile_calls"], v["slice.profile_busy_ms"], v["slice.profile_ms_per_call"] = calls, busy, ratio(busy, calls)
	v["slice.profile_allocs_per_call"], v["slice.profile_mb_per_call"] = p.allocs[stProfile], p.mb[stProfile]

	calls, busy = stage(stReplay)
	v["timing.replay_calls"], v["timing.replay_busy_ms"], v["timing.replay_ms_per_call"] = calls, busy, ratio(busy, calls)
	v["timing.replay_minst_per_s"] = minstPerS(stReplay)
	v["timing.replay_allocs_per_call"], v["timing.replay_mb_per_call"] = p.allocs[stReplay], p.mb[stReplay]
	calls, busy = stage(stBase)
	v["timing.base_calls"], v["timing.base_busy_ms"], v["timing.base_minst_per_s"] = calls, busy, minstPerS(stBase)
	v["timing.base_allocs_per_call"], v["timing.base_mb_per_call"] = p.allocs[stBase], p.mb[stBase]
	calls, busy = stage(stTrace)
	v["timing.trace_calls"], v["timing.trace_busy_ms"] = calls, busy
	v["timing.trace_allocs_per_call"], v["timing.trace_mb_per_call"] = p.allocs[stTrace], p.mb[stTrace]
	v["timing.sim_calls"], _ = stage(stSim)

	calls, busy = stage(stSelect)
	var pthreads int
	for _, r := range reports {
		pthreads += len(r.PThreads)
	}
	v["selector.select_calls"], v["selector.select_busy_ms"] = calls, busy
	v["selector.pthreads_per_call"] = ratio(float64(pthreads), float64(len(reports)))
	v["selector.select_allocs_per_call"], v["selector.select_mb_per_call"] = p.allocs[stSelect], p.mb[stSelect]

	c := t.cache
	hitRatio := func(hits, runs int64) float64 { return ratio(float64(hits), float64(hits+runs)) }
	v["cache.base_hit_ratio"] = hitRatio(c.BaseHits, c.BaseRuns)
	v["cache.profile_hit_ratio"] = hitRatio(c.ProfileHits, c.ProfileRuns)
	v["cache.trace_hit_ratio"] = hitRatio(c.TraceHits, c.TraceRuns)
	v["cache.evictions"] = float64(c.Evictions)

	capacity := float64(t.workers) * ms(t.wall)
	v["sweep.unattributed_frac"] = 1 - ratio(busyAll, capacity)
	v["runtime.alloc_mb_per_op"] = ratio(float64(m.allocBytes)/(1<<20), float64(m.cells()))
	v["runtime.gc_cpu_frac"] = ratio(m.gcCPU, m.totalCPU)

	v["serve.transport_frac"] = ratio(float64(t.rtt-t.handler), float64(t.rtt))
	v["serve.stage_frac"] = ratio(busyAll, ms(t.handler))
	v["serve.coalesced_ratio"] = ratio(float64(t.coalesced), float64(t.flights+t.coalesced))
	var queued float64
	for _, q := range t.queued {
		queued += float64(q)
	}
	v["serve.gate_queued_mean"] = ratio(queued, float64(len(t.queued)))
	v["serve.response_kb"] = ratio(float64(t.respBytes)/1024, float64(t.requests))

	forwards := t.forwards[0] + t.forwards[1]
	v["fleet.forward_calls"] = float64(forwards)
	v["fleet.retries"] = float64(t.fleetCounts.Retries)
	v["fleet.failovers"] = float64(t.fleetCounts.Failovers)
	v["fleet.local_fallbacks"] = float64(t.fleetCounts.LocalFallbacks)
	v["fleet.max_backend_share"] = ratio(float64(max(t.forwards[0], t.forwards[1])), float64(forwards))
	if forwards > 0 {
		v["fleet.unattributed_frac"] = 1 - ratio(ms(t.forwardBusy), float64(len(fleetBackends))*ms(t.wall))
	} else {
		v["fleet.unattributed_frac"] = 0
	}

	v["model.sim_speedup_pct"], v["model.sim_coverage_pct"], v["model.ipc_err_pct"] = modelMeans(reports)
	return v
}

func (o options) spansPath(workload string) string {
	if o.spans != "" {
		return o.spans
	}
	return filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.ndjson", workload, o.seed))
}

func writeSpans(path string, spans []obs.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteNDJSON(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	fmt.Printf("# %d spans written to %s\n", len(spans), path)
	return nil
}
