package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"preexec/internal/obs"
)

// gateProbe is an obs.Clock whose instants are the ticks 1, 2, 3, … (read
// as microseconds); each read records how many slots the gate held.
type gateProbe struct {
	g    *gate
	mu   sync.Mutex
	held []int // held[i] is the slot count at tick i+1
}

func (p *gateProbe) Now() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.held = append(p.held, p.g.inFlight())
	return time.UnixMicro(int64(len(p.held)))
}

// slotsAt returns the slots the gate held when tick us was read.
func (p *gateProbe) slotsAt(us int64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.held[us-1]
}

// postGate posts body to path on ts and returns the response's trace ID,
// failing the test on anything but 200.
func postGate(t *testing.T, ts *httptest.Server, path, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, raw)
	}
	return resp.Header.Get(obs.TraceHeader)
}

// gateCfg keeps the probed evaluations small.
const gateCfg = `{"machine": {"warm_insts": 2000, "measure_insts": 8000}}`

// TestGateAdmitsBeforeObserving pins the order of admission and
// observation on an idle one-worker server: a stage takes its gate slot
// before its observation starts and keeps it until its observation ends,
// so observed stage latencies exclude queueing at the gate and observed
// expensive stages never outnumber the workers. A traced one-cell sweep —
// one cold evaluation — times its stage spans on a clock that samples the
// gate: every "trace", "base", "replay" and "profile" span holds a slot of
// its own from start to end, each runs once, and selection holds none. A
// cold /v1/evaluate then observes each stage once, and every stage clock
// read but selection's happens under a slot — so the gate admitted each of
// its trace recording, base run, profiling pass and replay once.
func TestGateAdmitsBeforeObserving(t *testing.T) {
	expensive := map[string]bool{"trace": true, "base": true, "replay": true, "profile": true}
	t.Run("sweep", func(t *testing.T) {
		s := New(WithWorkers(1))
		probe := &gateProbe{g: s.gate}
		s.obs.tracer = obs.NewTracer(tracerSeed, probe)
		ts := httptest.NewServer(s)
		defer ts.Close()
		trace := postGate(t, ts, "/v1/sweep?trace=1",
			fmt.Sprintf(`{"benches": ["vpr.p"], "points": [{"name": "p", "config": %s}]}`, gateCfg))

		spans := s.obs.tracer.Collect(trace)
		runs := make(map[string]int)
		for _, sp := range spans {
			stage, ok := strings.CutPrefix(sp.Name, "stage:")
			if !ok {
				continue
			}
			runs[stage]++
			if sp.EndUS == 0 {
				t.Fatalf("%s span never ended", stage)
			}
			if !expensive[stage] {
				if n := probe.slotsAt(sp.StartUS); n != 0 {
					t.Errorf("%s started with %d slots held on an idle server, want 0", stage, n)
				}
				continue
			}
			// Every expensive span open at this span's start holds a slot.
			open := 0
			for _, o := range spans {
				name, _ := strings.CutPrefix(o.Name, "stage:")
				if expensive[name] && o.StartUS <= sp.StartUS && sp.StartUS <= o.EndUS {
					open++
				}
			}
			if n := probe.slotsAt(sp.StartUS); n < open {
				t.Errorf("%s started with %d slots held and %d expensive stages observed: observation began before admission", stage, n, open)
			}
			if open > s.workers {
				t.Errorf("%d expensive stages observed at once on %d workers", open, s.workers)
			}
		}
		for _, stage := range []string{"trace", "base", "profile", "replay", "select"} {
			if runs[stage] != 1 {
				t.Errorf("%s ran %d times, want 1 (spans %v)", stage, runs[stage], runs)
			}
		}
	})
	t.Run("evaluate", func(t *testing.T) {
		s := New(WithWorkers(1))
		probe := &gateProbe{g: s.gate}
		s.obs.clock = probe
		ts := httptest.NewServer(s)
		defer ts.Close()
		postGate(t, ts, "/v1/evaluate", fmt.Sprintf(`{"workload": "vpr.p", "config": %s}`, gateCfg))

		for _, stage := range []string{"build", "trace", "base", "profile", "replay", "select"} {
			if _, _, n := s.obs.stage[stage].Snapshot(); n != 1 {
				t.Errorf("%s observed %d times, want 1", stage, n)
			}
		}
		// Each observation reads the clock at its start and its end.
		free := 0
		for us := range int64(len(probe.held)) {
			if probe.slotsAt(us+1) == 0 {
				free++
			}
		}
		if free != 2 {
			t.Errorf("%d stage clock reads held no slot, want 2 (selection's start and end)", free)
		}
		if n := s.gate.inFlight(); n != 0 {
			t.Errorf("%d slots still held after the request", n)
		}
	})
}
