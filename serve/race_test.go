package serve_test

import (
	"context"
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

// TestSharedCacheStress hammers one LRU-bounded StageCache from both sides
// at once — library Sweep.Run callers and serve HTTP handlers — and then
// checks the cache's books balance: with no failed flights, every stage run
// either still resides in the cache or was evicted, so
//
//	BaseRuns + ProfileRuns == base entries + profile entries + Evictions
//
// and each stage holds at most the configured bound. Run under -race (the
// CI race step includes this package) it doubles as the concurrency soak
// for the request scheduler, the single-flight layer, and the eviction
// list.
func TestSharedCacheStress(t *testing.T) {
	const limit = 2
	srv := serve.New(serve.WithCacheLimit(limit), serve.WithWorkers(4))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cache := srv.Cache()

	// Two machine variants so the HTTP side alone produces four distinct
	// base keys (2 workloads x 2 memory latencies) against a 2-entry bound.
	cfgs := [2]string{
		`{"machine": {"warm_insts": 2000, "measure_insts": 6000}}`,
		`{"machine": {"warm_insts": 2000, "measure_insts": 6000, "mem_lat": 90}}`,
	}
	names := [2]string{"crafty", "gap"}

	var wg sync.WaitGroup
	errc := make(chan error, 64)

	// HTTP side: 4 clients x 4 evaluations over the workload/config matrix.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				body := fmt.Sprintf(`{"workload": %q, "config": %s}`,
					names[(g+i)%2], cfgs[i%2])
				resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("client %d req %d: status %d: %s", g, i, resp.StatusCode, raw)
					return
				}
			}
		}(g)
	}

	// Library side: 2 concurrent sweeps sharing the same cache. Each builds
	// its own programs (distinct pointers), adding eviction churn on top of
	// the server's pointer-stable entries.
	cfg := preexec.DefaultConfig()
	cfg.Machine.WarmInsts, cfg.Machine.MeasureInsts = 2000, 6000
	cfgRaw := cfg
	cfgRaw.Selection.Optimize, cfgRaw.Selection.Merge = false, false
	points := []preexec.ConfigPoint{{Name: "base", Config: cfg}, {Name: "raw", Config: cfgRaw}}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			benches, err := preexec.SweepBenches([]string{"bzip2", "mcf"}, 1)
			if err != nil {
				errc <- err
				return
			}
			sweep := &preexec.Sweep{Cache: cache, Workers: 2}
			if _, err := sweep.Run(context.Background(), benches, points); err != nil {
				errc <- err
			}
		}()
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := cache.Stats()
	base, prof, trace := cache.Len()
	if base > limit || prof > limit || trace > limit {
		t.Fatalf("cache holds %d/%d/%d entries, want <= %d each", base, prof, trace, limit)
	}
	if got, want := st.BaseRuns+st.ProfileRuns+st.TraceRuns, int64(base+prof+trace)+st.Evictions; got != want {
		t.Fatalf("eviction books don't balance: %d stage runs != %d resident + %d evicted",
			got, base+prof+trace, st.Evictions)
	}
	// The workload x config matrix exceeds the bound many times over, so the
	// LRU policy must actually have fired.
	if st.Evictions == 0 {
		t.Error("stress produced no evictions; the LRU bound never engaged")
	}
	if st.BaseRuns == 0 || st.ProfileRuns == 0 {
		t.Errorf("stress stats %+v recorded no stage runs", st)
	}
}
