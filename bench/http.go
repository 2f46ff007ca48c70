package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"preexec"
	"preexec/internal/obs"
)

// loadClients bounds the benchmark's load: two client connections, one per
// core of the machine the benchmark is sized for.
const loadClients = 2

// newClient is one load connection: keep-alive, never more than one
// connection at a time.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// closedLoop runs send(client, i) for i in [0, n) from loadClients
// goroutines, each sending its next request only when the previous one has
// returned. It returns once every request has.
func closedLoop(n int, send func(client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				send(c, i)
			}
		}()
	}
	wg.Wait()
}

// exchange is one timed HTTP round trip: from send to the last body byte.
type exchange struct {
	status int
	body   []byte
	rtt    time.Duration
	err    error
}

// do sends one request; a non-empty trace is sent as its X-Preexec-Trace
// header.
func do(ctx context.Context, client *http.Client, method, url string, body []byte, trace string) exchange {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return exchange{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return exchange{err: err, rtt: time.Since(start)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return exchange{status: resp.StatusCode, body: b, rtt: time.Since(start), err: err}
}

// check turns a failed or non-200 exchange into an error.
func (x exchange) check(what string) error {
	if x.err != nil {
		return fmt.Errorf("%s: %w", what, x.err)
	}
	if x.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", what, x.status, x.body)
	}
	return nil
}

// serverStats is the part of GET /v1/stats the benchmark reads.
type serverStats struct {
	Cache   preexec.CacheStats `json:"cache"`
	Flights struct {
		Started   int64 `json:"started"`
		Coalesced int64 `json:"coalesced"`
	} `json:"flights"`
	Gate struct {
		Queued int64 `json:"queued"`
	} `json:"gate"`
	Fleet *fleetCounts `json:"fleet"`
}

// snapshot is a server's cumulative counters: /v1/stats plus the stage
// latency histograms of /metrics.
type snapshot struct {
	stats serverStats
	count [numStages]int64
	busy  [numStages]time.Duration
}

func scrape(ctx context.Context, client *http.Client, base string) (snapshot, error) {
	var s snapshot
	x := do(ctx, client, http.MethodGet, base+"/v1/stats", nil, "")
	if err := x.check("GET /v1/stats"); err != nil {
		return s, err
	}
	if err := json.Unmarshal(x.body, &s.stats); err != nil {
		return s, fmt.Errorf("GET /v1/stats: %w", err)
	}
	x = do(ctx, client, http.MethodGet, base+"/metrics", nil, "")
	if err := x.check("GET /metrics"); err != nil {
		return s, err
	}
	const series = `preexec_stage_duration_seconds_`
	sc := bufio.NewScanner(bytes.NewReader(x.body))
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), series)
		if !ok {
			continue
		}
		kind, rest, _ := strings.Cut(line, `{stage="`)
		stage, val, _ := strings.Cut(rest, `"} `)
		st := stageIndex(stage)
		if st < 0 || (kind != "sum" && kind != "count") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return s, fmt.Errorf("GET /metrics: %q: %w", sc.Text(), err)
		}
		if kind == "sum" {
			s.busy[st] = time.Duration(v * float64(time.Second))
		} else {
			s.count[st] = int64(v)
		}
	}
	return s, nil
}

// addStages adds the stage work between two snapshots of one server to the
// tally.
func (t *tally) addStages(before, after snapshot) {
	for st := range stageNames {
		t.stage[st].calls.Add(after.count[st] - before.count[st])
		t.stage[st].busyNs.Add(int64(after.busy[st] - before.busy[st]))
	}
	c := after.stats.Cache
	p := before.stats.Cache
	t.addCache(preexec.CacheStats{
		BaseRuns: c.BaseRuns - p.BaseRuns, BaseHits: c.BaseHits - p.BaseHits,
		ProfileRuns: c.ProfileRuns - p.ProfileRuns, ProfileHits: c.ProfileHits - p.ProfileHits,
		TraceRuns: c.TraceRuns - p.TraceRuns, TraceHits: c.TraceHits - p.TraceHits,
		Evictions: c.Evictions - p.Evictions,
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flights += after.stats.Flights.Started - before.stats.Flights.Started
	t.coalesced += after.stats.Flights.Coalesced - before.stats.Flights.Coalesced
}
