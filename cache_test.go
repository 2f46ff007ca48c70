package preexec

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// fakeProgs returns n distinct program identities (the cache keys on
// pointer identity; the contents are irrelevant to the stage map).
func fakeProgs(n int) []*Program {
	ps := make([]*Program, n)
	for i := range ps {
		ps[i] = &Program{Name: fmt.Sprintf("p%d", i)}
	}
	return ps
}

func TestStageCacheLimitEvictsLRU(t *testing.T) {
	ctx := context.Background()
	c := NewStageCache(WithStageCacheLimit(2))
	cfg := TimingConfig{}
	computes := 0
	get := func(p *Program) {
		t.Helper()
		if _, err := c.baseStats(ctx, p, cfg, func() (Stats, error) {
			computes++
			return Stats{Retired: 1}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	ps := fakeProgs(3)
	get(ps[0])
	get(ps[1])
	get(ps[0]) // refresh p0: p1 becomes least recently used
	get(ps[2]) // exceeds the bound: evicts p1
	if base, _, _ := c.Len(); base != 2 {
		t.Fatalf("cache holds %d base entries, want 2", base)
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if computes != 3 {
		t.Fatalf("computes = %d, want 3", computes)
	}
	get(ps[0]) // still cached
	if computes != 3 {
		t.Fatalf("p0 recomputed after refresh, computes = %d", computes)
	}
	get(ps[1]) // evicted: must recompute (and evict p2, the new LRU... p0 was just used)
	if computes != 4 {
		t.Fatalf("evicted p1 not recomputed, computes = %d", computes)
	}
	st := c.Stats()
	if st.BaseRuns != 4 || st.BaseHits != 2 {
		t.Fatalf("stats = %+v, want 4 runs / 2 hits", st)
	}
}

func TestStageCacheUnlimitedByDefault(t *testing.T) {
	ctx := context.Background()
	c := NewStageCache()
	cfg := TimingConfig{}
	for _, p := range fakeProgs(64) {
		if _, err := c.baseStats(ctx, p, cfg, func() (Stats, error) { return Stats{}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if base, _, _ := c.Len(); base != 64 {
		t.Fatalf("unlimited cache holds %d entries, want 64", base)
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("unlimited cache evicted %d entries", ev)
	}
}

// TestStageCacheComputeRunsUnlocked observes dynamically what the lockscope
// analyzer asserts statically for memo.Map.Do: the stage mutex guards only
// map and LRU bookkeeping, never the compute itself, so a blocked
// computation for one key cannot stall lookups of other keys.
func TestStageCacheComputeRunsUnlocked(t *testing.T) {
	ctx := context.Background()
	c := NewStageCache()
	cfg := TimingConfig{}
	ps := fakeProgs(2)

	started := make(chan struct{})
	release := make(chan struct{})
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		st, err := c.baseStats(ctx, ps[0], cfg, func() (Stats, error) {
			close(started)
			<-release
			return Stats{Retired: 10}, nil
		})
		if err != nil || st.Retired != 10 {
			t.Errorf("slow compute: (%+v, %v), want Retired 10", st, err)
		}
	}()
	<-started

	fastDone := make(chan struct{})
	go func() {
		defer close(fastDone)
		st, err := c.baseStats(ctx, ps[1], cfg, func() (Stats, error) {
			return Stats{Retired: 20}, nil
		})
		if err != nil || st.Retired != 20 {
			t.Errorf("fast compute: (%+v, %v), want Retired 20", st, err)
		}
	}()
	select {
	case <-fastDone:
	case <-time.After(5 * time.Second):
		t.Fatal("p1 lookup blocked behind p0's compute: the stage lock is held across compute")
	}
	close(release)
	<-slowDone
	if st := c.Stats(); st.BaseRuns != 2 || st.BaseHits != 0 {
		t.Errorf("stats = %+v, want 2 runs / 0 hits", st)
	}
}

// TestStageCacheEvictionOfInflightEntry pins the eviction-accounting
// contract while a compute is blocked in flight: the LRU bound may unmap an
// entry whose computation is still running; the evicted flight completes
// normally for its owner, a later request for the same key recomputes
// rather than coalescing onto the evicted entry (it would otherwise block
// behind a flight no longer reachable from the map), and eviction counters
// stay exact throughout.
func TestStageCacheEvictionOfInflightEntry(t *testing.T) {
	ctx := context.Background()
	c := NewStageCache(WithStageCacheLimit(1))
	cfg := TimingConfig{}
	ps := fakeProgs(2)

	started := make(chan struct{})
	release := make(chan struct{})
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		st, err := c.baseStats(ctx, ps[0], cfg, func() (Stats, error) {
			close(started)
			<-release
			return Stats{Retired: 10}, nil
		})
		if err != nil || st.Retired != 10 {
			t.Errorf("evicted in-flight compute: (%+v, %v), want Retired 10 for its owner", st, err)
		}
	}()
	<-started

	// p1 inserts while p0's compute is blocked: the bound evicts p0's
	// in-flight entry (the LRU tail).
	st1, err := c.baseStats(ctx, ps[1], cfg, func() (Stats, error) {
		return Stats{Retired: 20}, nil
	})
	if err != nil || st1.Retired != 20 {
		t.Fatalf("p1 compute: (%+v, %v), want Retired 20", st1, err)
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d after evicting the in-flight entry, want 1", ev)
	}

	// p0 was unmapped mid-flight, so a fresh request must start its own
	// computation instead of waiting on the evicted (still blocked) flight.
	recomputed := make(chan Stats, 1)
	go func() {
		st, err := c.baseStats(ctx, ps[0], cfg, func() (Stats, error) {
			return Stats{Retired: 11}, nil
		})
		if err != nil {
			t.Error(err)
		}
		recomputed <- st
	}()
	select {
	case st := <-recomputed:
		if st.Retired != 11 {
			t.Fatalf("re-request after eviction got Retired %d, want a fresh 11", st.Retired)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("re-request coalesced onto the evicted in-flight entry and blocked")
	}

	close(release)
	<-firstDone

	// The fresh p0 entry evicted p1 in turn; the evicted flight's late
	// completion must not resurrect its entry or disturb the counters.
	if base, _, _ := c.Len(); base != 1 {
		t.Fatalf("cache holds %d base entries, want 1", base)
	}
	st := c.Stats()
	if st.BaseRuns != 3 || st.BaseHits != 0 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want 3 runs / 0 hits / 2 evictions", st)
	}
	got, err := c.baseStats(ctx, ps[0], cfg, func() (Stats, error) {
		return Stats{Retired: 99}, nil
	})
	if err != nil || got.Retired != 11 {
		t.Fatalf("p0 after settle: (%+v, %v), want the cached Retired 11", got, err)
	}
	if hits := c.Stats().BaseHits; hits != 1 {
		t.Fatalf("hits = %d after cached re-read, want 1", hits)
	}
}

// TestSweepWithCacheLimitBitIdentical pins the LRU contract end to end: a
// sweep over a cache bounded to a single entry per stage — evicting on
// every benchmark switch, and on every slice shape served from a shared
// profiling pass — produces cells bit-identical to evaluating each cell
// alone.
func TestSweepWithCacheLimitBitIdentical(t *testing.T) {
	benches, err := SweepBenches([]string{"crafty", "gap"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Machine.WarmInsts, cfg.Machine.MeasureInsts = 5_000, 15_000
	cfgRaw := cfg
	cfgRaw.Selection.Optimize = false
	cfgScope := cfg
	cfgScope.Selection.Scope = 256
	points := []ConfigPoint{{Name: "base", Config: cfg}, {Name: "raw", Config: cfgRaw}, {Name: "scope256", Config: cfgScope}}

	limited := &Sweep{Cache: NewStageCache(WithStageCacheLimit(1)), Workers: 1}
	resLim, err := limited.Run(context.Background(), benches, points)
	if err != nil {
		t.Fatal(err)
	}
	resPlain, err := SweepEachCellAlone(context.Background(), benches, points, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resLim.Cells) != len(resPlain.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(resLim.Cells), len(resPlain.Cells))
	}
	for i := range resLim.Cells {
		a, b := resLim.Cells[i], resPlain.Cells[i]
		if a.Report.Base != b.Report.Base || a.Report.Pre != b.Report.Pre ||
			a.Report.BaseMisses != b.Report.BaseMisses {
			t.Errorf("cell %s/%s differs between the limited cache and the cell alone", a.Bench, a.Point)
		}
	}
	if base, prof, trace := limited.Cache.Len(); base > 1 || prof > 1 || trace > 1 {
		t.Errorf("limited cache holds %d/%d/%d entries, want <= 1 each", base, prof, trace)
	}
}

// panicOnceGate admits every stage, except that it panics on its first
// "trace" admission, inside the trace recording's memo flight.
type panicOnceGate struct {
	panicked atomic.Bool
}

func (g *panicOnceGate) Admit(_ context.Context, stage, _ string) (func(), error) {
	if stage == "trace" && !g.panicked.Swap(true) {
		panic("injected trace admission panic")
	}
	return func() {}, nil
}

// TestStageCacheComputePanicDoesNotWedgeKey pins a panicking stage as a
// failed flight: the panic reaches the caller, and a later lookup of the
// same trace and base-run keys — say the next request of a server whose
// handler recovered the panic — computes afresh instead of blocking on an
// entry that never lands.
func TestStageCacheComputePanicDoesNotWedgeKey(t *testing.T) {
	w, err := WorkloadByName("vpr.p")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(1)
	machine := DefaultMachine()
	machine.WarmInsts, machine.MeasureInsts = 10_000, 30_000
	eng := New(WithMachine(machine), WithStageGate(&panicOnceGate{}), WithStageCache(NewStageCache()))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Simulate did not propagate the trace admission panic")
			}
		}()
		_, _ = eng.Simulate(t.Context(), prog, nil, ModeBase)
	}()
	ctx, cancel := context.WithTimeout(t.Context(), 10*time.Second)
	defer cancel()
	if _, err := eng.Simulate(ctx, prog, nil, ModeBase); err != nil {
		t.Fatalf("Simulate after a recovered panic: %v", err)
	}
}

// The zero StageCache is an empty, unlimited cache, as NewStageCache()
// returns.
func TestStageCacheZeroValueUsable(t *testing.T) {
	ctx := context.Background()
	var c StageCache
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("fresh zero cache stats = %+v", st)
	}
	ps := fakeProgs(3)
	computes := 0
	for _, p := range append(ps, ps...) {
		if _, err := c.regions(ctx, p, ProfileOptions{}, func() ([]ProfileRegion, error) {
			computes++
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, prof, _ := c.Len(); prof != 3 || computes != 3 {
		t.Fatalf("zero cache holds %d profiles after %d computes, want 3 and 3", prof, computes)
	}
	if st := c.Stats(); st.ProfileRuns != 3 || st.ProfileHits != 3 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 3 profile runs / 3 hits / no evictions", st)
	}
}
