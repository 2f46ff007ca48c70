package preexec_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"preexec"
	"preexec/synth"
)

// testMachine returns the base machine with test-sized windows.
func testMachine() preexec.MachineConfig {
	m := preexec.DefaultMachine()
	m.WarmInsts, m.MeasureInsts = 20_000, 60_000
	return m
}

func buildBench(t testing.TB, name string) *preexec.Program {
	t.Helper()
	w, err := preexec.WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.Build(1)
}

// TestEvaluateDeterministic guards the golden test's premise: two runs of
// the same engine on the same program are identical.
func TestEvaluateDeterministic(t *testing.T) {
	prog := buildBench(t, "vpr.r")
	eng := preexec.New(preexec.WithMachine(testMachine()))
	a, err := eng.Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two evaluations of the same program diverge")
	}
}

// TestEvaluateCancelled proves an already-cancelled context fails fast with
// ctx.Err() before any simulation work.
func TestEvaluateCancelled(t *testing.T) {
	prog := buildBench(t, "vpr.p")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := preexec.New(preexec.WithMachine(testMachine()))
	if _, err := eng.Evaluate(ctx, prog); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEvaluateCancelMidRun proves a cancellation arriving mid-simulation
// returns promptly — the hot loops poll the context every few thousand
// cycles rather than running the evaluation to completion.
func TestEvaluateCancelMidRun(t *testing.T) {
	// A big, slow evaluation: full windows, scaled workload.
	w, err := preexec.WorkloadByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(4)
	machine := preexec.DefaultMachine()
	machine.MeasureInsts = 4_000_000
	eng := preexec.New(preexec.WithMachine(machine))

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = eng.Evaluate(ctx, prog)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The full evaluation takes seconds; a prompt cancellation returns in
	// tens of milliseconds. Allow generous slack for loaded CI machines.
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestEvaluateDeadline proves deadline expiry surfaces as DeadlineExceeded.
func TestEvaluateDeadline(t *testing.T) {
	prog := buildBench(t, "mcf")
	machine := preexec.DefaultMachine()
	machine.MeasureInsts = 4_000_000
	eng := preexec.New(preexec.WithMachine(machine))
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	if _, err := eng.Evaluate(ctx, prog); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// countingGate admits every stage and counts its admissions per stage.
type countingGate struct {
	mu sync.Mutex
	n  map[string]int
}

func (g *countingGate) Admit(_ context.Context, stage, _ string) (func(), error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.n == nil {
		g.n = make(map[string]int)
	}
	g.n[stage]++
	return func() {}, nil
}

// admits returns how many times the gate admitted stage.
func (g *countingGate) admits(stage string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n[stage]
}

// TestWithProfilerPluggable pins where the engine admits stages through its
// gate: a cold Evaluate admits its trace recording, base run, profiling
// pass and pre-execution replay once each and selection never, and the
// gate leaves the report unchanged.
func TestWithProfilerPluggable(t *testing.T) {
	prog := buildBench(t, "vpr.p")
	gate := &countingGate{}
	rep, err := preexec.New(preexec.WithMachine(testMachine()), preexec.WithStageGate(gate)).Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"trace", "base", "profile", "replay"} {
		if n := gate.admits(stage); n != 1 {
			t.Errorf("%s admitted %d times, want 1", stage, n)
		}
	}
	if n := gate.admits("select"); n != 0 {
		t.Errorf("select admitted %d times, want 0", n)
	}
	if len(rep.PThreads) == 0 {
		t.Error("evaluation selected nothing, so no replay was admitted")
	}
	want, err := preexec.New(preexec.WithMachine(testMachine())).Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, want) {
		t.Error("the gated evaluation's report differs from the ungated one")
	}
}

// TestEngineProfileAndSelectForest exercises the split tsim/tselect flow on
// the public API: profile once, select from the forest, and check the
// result matches the selection Evaluate makes from the same profile.
func TestEngineProfileAndSelectForest(t *testing.T) {
	prog := buildBench(t, "vpr.p")
	eng := preexec.New(preexec.WithMachine(testMachine()))

	rep, err := eng.Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := eng.Profile(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 1 {
		t.Fatalf("regions = %d, want 1", len(regions))
	}
	fromForest := eng.SelectForest(regions[0].Forest, rep.Base.IPC)
	if !reflect.DeepEqual(fromForest.Pred, rep.Pred) {
		t.Errorf("forest and Evaluate selection diverge:\n%+v\n%+v", fromForest.Pred, rep.Pred)
	}
	if !reflect.DeepEqual(fromForest.PThreads, rep.PThreads) {
		t.Errorf("p-threads diverge: %d from the forest vs %d from Evaluate", len(fromForest.PThreads), len(rep.PThreads))
	}
}

// TestReportJSONRoundTrip checks the -json output surface: derived metrics
// present, raw fields intact.
func TestReportJSONRoundTrip(t *testing.T) {
	prog := buildBench(t, "vpr.p")
	eng := preexec.New(preexec.WithMachine(testMachine()))
	rep, err := eng.Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"program":"vpr.p"`, `"coverage_pct"`, `"speedup_pct"`, `"pthreads"`, `"prediction"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("JSON report missing %s:\n%s", key, data)
		}
	}
}

// TestEmptyProfileFails pins the profiler's at-least-one-region contract,
// which selection relies on instead of failing on an empty profile: a
// program that halts during warm-up, before the profile window opens,
// still profiles to one empty region — with region splitting on, too —
// and evaluates to an empty selection whose pre-execution run is its base
// run.
func TestEmptyProfileFails(t *testing.T) {
	prog, err := synth.Assemble([]byte(".name early\nli r1, 1\nhalt\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, regionInsts := range []int64{0, 1_000} {
		cfg := preexec.DefaultConfig()
		cfg.Machine = testMachine()
		cfg.Selection.RegionInsts = regionInsts
		eng := preexec.New(preexec.WithConfig(cfg))
		regions, err := eng.Profile(t.Context(), prog)
		if err != nil {
			t.Fatal(err)
		}
		if len(regions) != 1 || regions[0].Forest.Insts != 0 || len(regions[0].Forest.Trees) != 0 {
			t.Fatalf("region insts %d: %d regions, want one empty region", regionInsts, len(regions))
		}
		rep, err := eng.Evaluate(t.Context(), prog)
		if err != nil {
			t.Fatalf("region insts %d: %v", regionInsts, err)
		}
		if len(rep.PThreads) != 0 || rep.Pre != rep.Base {
			t.Errorf("region insts %d: %d p-threads, pre %+v, base %+v; want an empty selection run as the base run",
				regionInsts, len(rep.PThreads), rep.Pre, rep.Base)
		}
	}
}

// stallGate injects the overlap tests' faults at admission. Its "profile"
// admission signals started, fails at once with profileErr if set, and
// otherwise blocks until its context ends; done is closed when it returns.
// Its "base" admission fails with baseErr once baseWait is closed (nil
// baseErr admits), and its "trace" admission fails with traceErr if set.
type stallGate struct {
	profileErr    error
	started, done chan struct{}
	sawCancel     atomic.Bool

	baseWait          <-chan struct{}
	baseErr, traceErr error
}

func (g *stallGate) Admit(ctx context.Context, stage, _ string) (func(), error) {
	switch {
	case stage == "profile":
		defer close(g.done)
		close(g.started)
		if g.profileErr != nil {
			return nil, g.profileErr
		}
		<-ctx.Done()
		g.sawCancel.Store(true)
		return nil, ctx.Err()
	case stage == "base" && g.baseErr != nil:
		<-g.baseWait
		return nil, g.baseErr
	case stage == "trace" && g.traceErr != nil:
		return nil, g.traceErr
	}
	return func() {}, nil
}

// TestEvaluateBaseFailureCancelsProfile pins the overlap of the profile with
// the base run: a failing base run returns its own error — also when the
// profile failed first — cancels a profile still running, and Evaluate
// returns only after the profile has. The base run and the profile read one
// trace, so the base run fails at its replay's admission, after the
// recording both waited for; a failed recording fails the evaluation as a
// base-run error before the profile is ever admitted.
func TestEvaluateBaseFailureCancelsProfile(t *testing.T) {
	prog := buildBench(t, "vpr.p")
	errBase, errProfile := errors.New("base backend down"), errors.New("profile backend down")
	for _, tc := range []struct {
		name       string
		profileErr error
		recordErr  bool
	}{
		{"profile running", nil, false},
		{"profile failed first", errProfile, false},
		{"recording failed", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := &stallGate{profileErr: tc.profileErr, started: make(chan struct{}), done: make(chan struct{})}
			if tc.recordErr {
				gate.traceErr = errBase
			} else {
				// The base run fails only once the profile is under way
				// (or, if it fails, over).
				gate.baseErr, gate.baseWait = errBase, gate.started
				if tc.profileErr != nil {
					gate.baseWait = gate.done
				}
			}
			eng := preexec.New(preexec.WithMachine(testMachine()), preexec.WithStageGate(gate))
			_, err := eng.Evaluate(t.Context(), prog)
			if !errors.Is(err, errBase) || errors.Is(err, errProfile) {
				t.Fatalf("err = %v, want the base run's error", err)
			}
			if !strings.Contains(err.Error(), "preexec: base run") {
				t.Errorf("err = %v, want it attributed to the base run", err)
			}
			if tc.recordErr {
				select {
				case <-gate.started:
					t.Fatal("the profile was admitted without a trace")
				default:
				}
				return
			}
			select {
			case <-gate.done:
			default:
				t.Fatal("Evaluate returned while its profile was still running")
			}
			if tc.profileErr == nil && !gate.sawCancel.Load() {
				t.Error("the failed base run did not cancel the profile")
			}
		})
	}
}

// TestEvaluateProfileFailureIsSelectionError checks the other order: a
// profile that fails beside a successful base run fails the evaluation as
// a selection error.
func TestEvaluateProfileFailureIsSelectionError(t *testing.T) {
	errProfile := errors.New("profile backend down")
	gate := &stallGate{profileErr: errProfile, started: make(chan struct{}), done: make(chan struct{})}
	eng := preexec.New(preexec.WithMachine(testMachine()), preexec.WithStageGate(gate))
	_, err := eng.Evaluate(t.Context(), buildBench(t, "vpr.p"))
	if !errors.Is(err, errProfile) || !strings.Contains(err.Error(), "preexec: selection") {
		t.Fatalf("err = %v, want the profile's error as a selection error", err)
	}
}
