package preexec_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"preexec"
)

// sweepConfig returns the paper's base configuration with test-sized
// windows.
func sweepConfig(warm, measure int64) preexec.Config {
	cfg := preexec.DefaultConfig()
	cfg.Machine.WarmInsts, cfg.Machine.MeasureInsts = warm, measure
	return cfg
}

// selectionPoints is a Figure-5-style selection-only grid: the four
// optimization/merging variants. None of these knobs feed the profile or
// the base timing run, so a memoized sweep shares both across all four.
func selectionPoints(warm, measure int64) []preexec.ConfigPoint {
	points := make([]preexec.ConfigPoint, 0, 4)
	for _, name := range []string{"none", "merge", "opt", "opt+merge"} {
		cfg := sweepConfig(warm, measure)
		cfg.Selection.Optimize = name == "opt" || name == "opt+merge"
		cfg.Selection.Merge = name == "merge" || name == "opt+merge"
		points = append(points, preexec.ConfigPoint{Name: name, Config: cfg})
	}
	return points
}

func runSweep(t *testing.T, s *preexec.Sweep, benches []preexec.SweepBench, points []preexec.ConfigPoint) *preexec.SweepResult {
	t.Helper()
	res, err := s.Run(t.Context(), benches, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(benches)*len(points) {
		t.Fatalf("cells = %d, want %d", len(res.Cells), len(benches)*len(points))
	}
	return res
}

// assertCellsEqual checks two sweep results are bit-for-bit identical,
// cell by cell.
func assertCellsEqual(t *testing.T, cached, uncached *preexec.SweepResult) {
	t.Helper()
	for i := range cached.Cells {
		c, u := cached.Cells[i], uncached.Cells[i]
		if c.Bench != u.Bench || c.Point != u.Point {
			t.Fatalf("cell %d label mismatch: %s/%s vs %s/%s", i, c.Bench, c.Point, u.Bench, u.Point)
		}
		if !reflect.DeepEqual(c.Report, u.Report) {
			t.Errorf("%s/%s: cached report diverges from uncached", c.Bench, c.Point)
		}
	}
}

// TestSweepSelectionGridCacheCounts is the tentpole acceptance test: a
// four-point selection-only sweep (Figure 5's opt/merge grid — the knobs
// feed neither the profile nor the base run) over the full ten-benchmark
// suite performs exactly ten profile runs and ten base timing runs — one
// per benchmark, shared by all four points — and every cell's report is
// bit-for-bit identical to the uncached path.
func TestSweepSelectionGridCacheCounts(t *testing.T) {
	benches, err := preexec.SweepBenches(nil, 1) // all ten
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 10 {
		t.Fatalf("benches = %d, want the full ten-benchmark suite", len(benches))
	}
	points := selectionPoints(10_000, 30_000)

	cached := runSweep(t, &preexec.Sweep{}, benches, points)
	uncached := runSweep(t, &preexec.Sweep{NoCache: true}, benches, points)

	want := preexec.CacheStats{
		BaseRuns: 10, BaseHits: 30,
		ProfileRuns: 10, ProfileHits: 30,
		TraceRuns: 10, TraceHits: 30,
	}
	if cached.Cache != want {
		t.Errorf("cache stats = %+v, want %+v", cached.Cache, want)
	}
	if uncached.Cache != (preexec.CacheStats{}) {
		t.Errorf("uncached sweep reports cache activity: %+v", uncached.Cache)
	}
	assertCellsEqual(t, cached, uncached)
	for _, cell := range cached.Cells {
		if cell.Err != nil {
			t.Errorf("%s/%s: %v", cell.Bench, cell.Point, cell.Err)
		}
		if cell.Report.Base.Retired == 0 {
			t.Errorf("%s/%s: empty report", cell.Bench, cell.Point)
		}
	}
}

// TestSweepMixedGridKeySeparation pins the cache key structure: points
// that change profile inputs (scope) or the machine (memory latency) get
// their own stage runs, while selection (merge) and ablation (RS throttle)
// knobs share — and all of it stays bit-identical to uncached evaluation.
func TestSweepMixedGridKeySeparation(t *testing.T) {
	benches, err := preexec.SweepBenches([]string{"vpr.p", "crafty"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := sweepConfig(10_000, 30_000)
	mk := func(name string, mutate func(cfg *preexec.Config)) preexec.ConfigPoint {
		cfg := base
		mutate(&cfg)
		return preexec.ConfigPoint{Name: name, Config: cfg}
	}
	points := []preexec.ConfigPoint{
		mk("base", func(cfg *preexec.Config) {}),
		mk("nomerge", func(cfg *preexec.Config) { cfg.Selection.Merge = false }),
		mk("scope512", func(cfg *preexec.Config) { cfg.Selection.Scope = 512 }),
		mk("ml140", func(cfg *preexec.Config) { cfg.Machine.MemLat = 140 }),
		mk("nothrottle", func(cfg *preexec.Config) { cfg.Ablation.NoRSThrottle = true }),
	}

	cached := runSweep(t, &preexec.Sweep{}, benches, points)
	uncached := runSweep(t, &preexec.Sweep{NoCache: true}, benches, points)
	assertCellsEqual(t, cached, uncached)

	// Per benchmark: base/nomerge/scope512/nothrottle share one base run
	// (scope and the p-thread-only throttle don't feed it), ml140 needs its
	// own; base/nomerge/ml140/nothrottle share one profile (memory latency
	// doesn't feed it), scope512 needs its own. Traces group exactly like
	// base runs (the recorded stream is selection-independent).
	want := preexec.CacheStats{
		BaseRuns: 4, BaseHits: 6,
		ProfileRuns: 4, ProfileHits: 6,
		TraceRuns: 4, TraceHits: 6,
	}
	if cached.Cache != want {
		t.Errorf("cache stats = %+v, want %+v", cached.Cache, want)
	}
}

// TestSweepSharedCacheAcrossRuns proves a caller-owned cache carries stage
// results across Run calls over the same programs, and that each result
// reports its own run's stage work (a counter delta, not the cumulative
// cache totals).
func TestSweepSharedCacheAcrossRuns(t *testing.T) {
	benches, err := preexec.SweepBenches([]string{"vpr.r"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cache := preexec.NewStageCache()
	s := &preexec.Sweep{Cache: cache}
	first := runSweep(t, s, benches, selectionPoints(10_000, 30_000)[:2])
	second := runSweep(t, s, benches, selectionPoints(10_000, 30_000)[2:])
	wantFirst := preexec.CacheStats{
		BaseRuns: 1, BaseHits: 1,
		ProfileRuns: 1, ProfileHits: 1,
		TraceRuns: 1, TraceHits: 1,
	}
	if first.Cache != wantFirst {
		t.Errorf("first run stats = %+v, want %+v", first.Cache, wantFirst)
	}
	// The second run's stages are all warm: zero runs, per-run hit counts.
	wantSecond := preexec.CacheStats{BaseHits: 2, ProfileHits: 2, TraceHits: 2}
	if second.Cache != wantSecond {
		t.Errorf("second run stats = %+v, want %+v", second.Cache, wantSecond)
	}
	wantTotal := preexec.CacheStats{
		BaseRuns: 1, BaseHits: 3,
		ProfileRuns: 1, ProfileHits: 3,
		TraceRuns: 1, TraceHits: 3,
	}
	if got := cache.Stats(); got != wantTotal {
		t.Errorf("cumulative cache stats = %+v, want %+v", got, wantTotal)
	}
}

// TestSweepCacheConcurrentRuns hammers one stage cache from two concurrent
// sweeps, each across the full worker pool (run under -race in CI). The
// same-key flights must coalesce: stage run counts stay per-key-unique.
func TestSweepCacheConcurrentRuns(t *testing.T) {
	benches, err := preexec.SweepBenches([]string{"vpr.p", "crafty", "gcc", "mcf"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	points := selectionPoints(5_000, 15_000)
	cache := preexec.NewStageCache()
	results := make([]*preexec.SweepResult, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &preexec.Sweep{Cache: cache, Workers: 0} // full pool
			res, err := s.Run(context.Background(), benches, points)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	assertCellsEqual(t, results[0], results[1])
	stats := cache.Stats()
	if stats.BaseRuns != 4 || stats.ProfileRuns != 4 {
		t.Errorf("concurrent sweeps duplicated stage work: %+v", stats)
	}
	if got, want := stats.BaseHits+stats.BaseRuns, int64(2*len(benches)*len(points)); got != want {
		t.Errorf("base lookups = %d, want %d", got, want)
	}
}

// blockingFirstSimulator parks its first call until the call's context is
// cancelled (signalling started first); later calls delegate to the real
// simulator. It orchestrates a cache flight that fails with one caller's
// cancellation while another caller waits on it.
type blockingFirstSimulator struct {
	once    sync.Once
	started chan struct{}
	inner   preexec.Simulator
}

func (s *blockingFirstSimulator) Simulate(ctx context.Context, p *preexec.Program, pts []*preexec.PThread, cfg preexec.TimingConfig) (preexec.Stats, error) {
	first := false
	s.once.Do(func() { first = true })
	if first {
		close(s.started)
		<-ctx.Done()
		return preexec.Stats{}, ctx.Err()
	}
	return s.inner.Simulate(ctx, p, pts, cfg)
}

// TestStageCacheFailedFlightDoesNotPoisonWaiters is the regression test for
// shared-cache isolation: when the computing caller's context is cancelled
// mid-flight, a waiter coalesced onto that flight must retry with its own
// (alive) context and succeed, not adopt the canceller's error.
func TestStageCacheFailedFlightDoesNotPoisonWaiters(t *testing.T) {
	prog := buildBench(t, "crafty")
	cache := preexec.NewStageCache()
	sim := &blockingFirstSimulator{started: make(chan struct{}), inner: passthroughSimulator{}}
	mkEngine := func() *preexec.Engine {
		return preexec.New(preexec.WithMachine(testMachine()),
			preexec.WithSimulator(sim), preexec.WithStageCache(cache))
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	aErr := make(chan error, 1)
	go func() {
		_, err := mkEngine().Evaluate(ctxA, prog)
		aErr <- err
	}()
	<-sim.started // A is mid base-run compute

	bErr := make(chan error, 1)
	var bRep preexec.Report
	go func() {
		rep, err := mkEngine().Evaluate(context.Background(), prog)
		bRep = rep
		bErr <- err
	}()
	// Let B coalesce onto A's flight, then cancel A out from under it.
	for i := 0; i < 100 && cache.Stats().BaseHits == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	cancelA()

	if err := <-aErr; !errors.Is(err, context.Canceled) {
		t.Errorf("canceller's err = %v, want context.Canceled", err)
	}
	if err := <-bErr; err != nil {
		t.Fatalf("waiter adopted the canceller's failure: %v", err)
	}
	// The uncached reference goes through the same simulator backend
	// (passthroughSimulator re-derives its own timing config).
	want, err := preexec.New(preexec.WithMachine(testMachine()),
		preexec.WithSimulator(passthroughSimulator{})).Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bRep, want) {
		t.Error("waiter's retried report diverges from a plain evaluation")
	}
}

// TestSweepCellJSONCarriesError pins the machine-readable partial-failure
// contract: a failed cell marshals with an "error" field, so JSON consumers
// can tell it from a completed zero report.
func TestSweepCellJSONCarriesError(t *testing.T) {
	benches, err := preexec.SweepBenches([]string{"vpr.p", "crafty"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := preexec.New(preexec.WithSimulator(&failingSimulator{failOn: "crafty", inner: passthroughSimulator{}}))
	s := &preexec.Sweep{Engine: eng, Workers: 1}
	res, err := s.Run(t.Context(), benches, selectionPoints(5_000, 10_000)[:1])
	if err == nil || res == nil {
		t.Fatalf("want partial failure with result, got err=%v res=%v", err, res)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"error":"preexec: base run: injected failure for crafty"`) &&
		!strings.Contains(string(data), "injected failure") {
		t.Errorf("JSON output hides the failed cell's error:\n%s", data)
	}
	var decoded struct {
		Cells []struct {
			Bench string `json:"bench"`
			Error string `json:"error"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, c := range decoded.Cells {
		if c.Bench == "crafty" && c.Error == "" {
			t.Error("crafty's failed cell marshalled without an error field")
		}
		if c.Bench == "vpr.p" && c.Error != "" {
			t.Errorf("completed cell carries error %q", c.Error)
		}
	}
}

// TestSweepPlanValidation pins plan-time rejection: nil programs and
// unnamed points fail with their index before any cell runs.
func TestSweepPlanValidation(t *testing.T) {
	prog := buildBench(t, "crafty")
	points := selectionPoints(5_000, 10_000)[:1]
	s := &preexec.Sweep{}

	_, err := s.Run(t.Context(), []preexec.SweepBench{{Name: "ok", Program: prog}, {Name: "ghost"}}, points)
	if err == nil || !strings.Contains(err.Error(), "benchmark 1") || !strings.Contains(err.Error(), `"ghost"`) {
		t.Errorf("nil program: err = %v, want the benchmark index and name", err)
	}
	_, err = s.Run(t.Context(), []preexec.SweepBench{{Name: "ok", Program: prog}},
		[]preexec.ConfigPoint{{Config: points[0].Config}})
	if err == nil || !strings.Contains(err.Error(), "point 0") {
		t.Errorf("unnamed point: err = %v, want the point index", err)
	}
	if _, err := s.Run(t.Context(), nil, points); err == nil {
		t.Error("empty benchmark set should error")
	}
	if _, err := s.Run(t.Context(), []preexec.SweepBench{{Name: "ok", Program: prog}}, nil); err == nil {
		t.Error("empty grid should error")
	}
}

// TestSweepBenchesValidation pins SweepBenches' up-front checks.
func TestSweepBenchesValidation(t *testing.T) {
	// An unknown name reports its position in the submitted list (the
	// context HTTP and CLI callers surface) and wraps the sentinel the
	// serve package maps onto 404.
	_, err := preexec.SweepBenches([]string{"vpr.p", "nope"}, 1)
	if err == nil || !strings.Contains(err.Error(), "nope") ||
		!strings.Contains(err.Error(), "benchmark 2 of 2") {
		t.Errorf("bad name: err = %v, want position context", err)
	}
	if !errors.Is(err, preexec.ErrUnknownWorkload) {
		t.Errorf("bad name: err = %v does not wrap ErrUnknownWorkload", err)
	}
	if _, err := preexec.SweepBenches([]string{"vpr.p"}, 0); err == nil ||
		!strings.Contains(err.Error(), "scale") {
		t.Errorf("scale 0: err = %v", err)
	}
	benches, err := preexec.SweepBenches([]string{"twolf"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 1 || benches[0].Program == nil || benches[0].Test == nil {
		t.Fatalf("twolf bench incomplete: %+v", benches)
	}
}

// TestSweepPartialFailure checks a failing cell surfaces per-cell while the
// rest of the result is still returned.
func TestSweepPartialFailure(t *testing.T) {
	benches, err := preexec.SweepBenches([]string{"vpr.p", "crafty"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := preexec.New(preexec.WithSimulator(&failingSimulator{failOn: "crafty", inner: passthroughSimulator{}}))
	s := &preexec.Sweep{Engine: eng, Workers: 1}
	res, err := s.Run(t.Context(), benches, selectionPoints(5_000, 10_000)[:2])
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("summary err = %v, want injected failure", err)
	}
	if res == nil {
		t.Fatal("partial failure must still return the result")
	}
	var completed, failed int
	for _, cell := range res.Cells {
		switch {
		case cell.Err == nil && cell.Report.Base.Retired > 0:
			completed++
		case cell.Err != nil:
			failed++
		default:
			t.Errorf("%s/%s: nil error beside an empty report", cell.Bench, cell.Point)
		}
	}
	if completed == 0 || failed == 0 {
		t.Errorf("completed = %d, failed = %d; want both populated", completed, failed)
	}
}

// TestSweepCustomBackendCached proves the cache wraps whatever stage
// backends the sweep's engine carries — a counting profiler sees one call
// per benchmark, not one per cell.
func TestSweepCustomBackendCached(t *testing.T) {
	benches, err := preexec.SweepBenches([]string{"vpr.p"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	inner := preexec.New(preexec.WithMachine(testMachine()))
	cp := &countingProfiler{inner: defaultProfiler{inner}}
	s := &preexec.Sweep{Engine: preexec.New(preexec.WithProfiler(cp)), Workers: 1}
	if _, err := s.Run(t.Context(), benches, selectionPoints(20_000, 60_000)); err != nil {
		t.Fatal(err)
	}
	if cp.calls != 1 {
		t.Errorf("custom profiler ran %d times for 4 cells, want 1", cp.calls)
	}
}

// TestEngineStageCacheOption exercises WithStageCache outside a sweep: two
// engines sharing a cache perform the base run and profile once.
func TestEngineStageCacheOption(t *testing.T) {
	prog := buildBench(t, "vpr.p")
	cache := preexec.NewStageCache()
	plain := preexec.New(preexec.WithMachine(testMachine()))
	a := preexec.New(preexec.WithMachine(testMachine()), preexec.WithStageCache(cache))
	cfgB := preexec.DefaultConfig()
	cfgB.Machine = testMachine()
	cfgB.Selection.Merge = false
	b := preexec.New(preexec.WithConfig(cfgB), preexec.WithStageCache(cache))

	repA, err := a.Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Evaluate(t.Context(), prog); err != nil {
		t.Fatal(err)
	}
	want := preexec.CacheStats{
		BaseRuns: 1, BaseHits: 1,
		ProfileRuns: 1, ProfileHits: 1,
		TraceRuns: 1, TraceHits: 1,
	}
	if got := cache.Stats(); got != want {
		t.Errorf("cache stats = %+v, want %+v", got, want)
	}
	plainRep, err := plain.Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repA, plainRep) {
		t.Error("cached evaluation diverges from uncached")
	}
}

// TestSweepProgressEvents checks per-cell progress streaming carries the
// bench/point cell names.
func TestSweepProgressEvents(t *testing.T) {
	benches, err := preexec.SweepBenches([]string{"crafty"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var names []string
	s := &preexec.Sweep{Progress: func(ev preexec.SuiteEvent) {
		mu.Lock()
		names = append(names, ev.Name)
		mu.Unlock()
	}}
	if _, err := s.Run(t.Context(), benches, selectionPoints(5_000, 10_000)[:2]); err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("events = %d, want 2", len(names))
	}
	for _, n := range names {
		if !strings.HasPrefix(n, "crafty/") {
			t.Errorf("event name %q, want crafty/<point>", n)
		}
	}
}
