package preexec_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"preexec"
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

// countingProfiler wraps the reference profiling stage to prove WithProfiler
// swaps the backend in.
type countingProfiler struct {
	calls atomic.Int64
}

func (c *countingProfiler) Profile(ctx context.Context, t *preexec.Trace, opts []preexec.ProfileOptions) ([][]preexec.ProfileRegion, error) {
	c.calls.Add(1)
	inner, _ := preexec.ReferenceStages()
	return inner.Profile(ctx, t, opts)
}

func TestWithProfilerPluggable(t *testing.T) {
	prog := buildBench(t, "vpr.p")
	cp := &countingProfiler{}
	eng := preexec.New(preexec.WithMachine(testMachine()), preexec.WithProfiler(cp))
	rep, err := eng.Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if n := cp.calls.Load(); n != 1 {
		t.Errorf("custom profiler called %d times, want 1", n)
	}
	if len(rep.PThreads) == 0 {
		t.Error("evaluation through the custom profiler selected nothing")
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

// emptyProfiler returns no regions for every shape, and no error.
type emptyProfiler struct{}

func (emptyProfiler) Profile(_ context.Context, _ *preexec.Trace, opts []preexec.ProfileOptions) ([][]preexec.ProfileRegion, error) {
	return make([][]preexec.ProfileRegion, len(opts)), nil
}

// TestEmptyProfileFails checks that a profiler returning no regions fails
// the evaluation with an error instead of crashing the selector.
func TestEmptyProfileFails(t *testing.T) {
	prog := buildBench(t, "vpr.p")
	eng := preexec.New(preexec.WithMachine(testMachine()), preexec.WithProfiler(emptyProfiler{}))
	_, err := eng.Evaluate(t.Context(), prog)
	if err == nil || !strings.Contains(err.Error(), "preexec: profile returned no regions") {
		t.Fatalf("err = %v, want the empty-profile error", err)
	}
}

// stallProfiler is a profiling backend for the overlap tests: it signals
// started, fails at once with err if set, and otherwise blocks until its
// context ends. done is closed when Profile returns.
type stallProfiler struct {
	err           error
	started, done chan struct{}
	sawCancel     atomic.Bool
}

func (s *stallProfiler) Profile(ctx context.Context, _ *preexec.Trace, _ []preexec.ProfileOptions) ([][]preexec.ProfileRegion, error) {
	defer close(s.done)
	close(s.started)
	if s.err != nil {
		return nil, s.err
	}
	<-ctx.Done()
	s.sawCancel.Store(true)
	return nil, ctx.Err()
}

// failingReplayer fails every replay with err once wait is closed; trace
// recordings pass through.
type failingReplayer struct {
	preexec.Simulator
	wait <-chan struct{}
	err  error
}

func (f failingReplayer) Replay(context.Context, *preexec.Trace, []*preexec.PThread, preexec.TimingConfig) (preexec.Stats, error) {
	<-f.wait
	return preexec.Stats{}, f.err
}

// failingRecorder fails every trace recording with err.
type failingRecorder struct {
	preexec.Simulator
	err error
}

func (f failingRecorder) RecordTrace(context.Context, *preexec.Program, preexec.TimingConfig) (*preexec.Trace, error) {
	return nil, f.err
}

// TestEvaluateBaseFailureCancelsProfile pins the overlap of the profile with
// the base run: a failing base run returns its own error — also when the
// profile failed first — cancels a profile still running, and Evaluate
// returns only after the profile has. The base run and the profile read one
// trace, so the base run fails in its replay, after the recording both
// waited for; a failed recording fails the evaluation as a base-run error
// before the profiler is ever called.
func TestEvaluateBaseFailureCancelsProfile(t *testing.T) {
	prog := buildBench(t, "vpr.p")
	_, sim := preexec.ReferenceStages()
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
			prof := &stallProfiler{err: tc.profileErr, started: make(chan struct{}), done: make(chan struct{})}
			// The base run fails only once the profile is under way (or, if
			// it fails, over).
			wait := prof.started
			if tc.profileErr != nil {
				wait = prof.done
			}
			var failing preexec.Simulator = failingReplayer{Simulator: sim, wait: wait, err: errBase}
			if tc.recordErr {
				failing = failingRecorder{Simulator: sim, err: errBase}
			}
			eng := preexec.New(
				preexec.WithMachine(testMachine()),
				preexec.WithProfiler(prof),
				preexec.WithSimulator(failing),
			)
			_, err := eng.Evaluate(t.Context(), prog)
			if !errors.Is(err, errBase) || errors.Is(err, errProfile) {
				t.Fatalf("err = %v, want the base run's error", err)
			}
			if !strings.Contains(err.Error(), "preexec: base run") {
				t.Errorf("err = %v, want it attributed to the base run", err)
			}
			if tc.recordErr {
				select {
				case <-prof.started:
					t.Fatal("the profiler ran without a trace")
				default:
				}
				return
			}
			select {
			case <-prof.done:
			default:
				t.Fatal("Evaluate returned while its profile was still running")
			}
			if tc.profileErr == nil && !prof.sawCancel.Load() {
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
	prof := &stallProfiler{err: errProfile, started: make(chan struct{}), done: make(chan struct{})}
	eng := preexec.New(preexec.WithMachine(testMachine()), preexec.WithProfiler(prof))
	_, err := eng.Evaluate(t.Context(), buildBench(t, "vpr.p"))
	if !errors.Is(err, errProfile) || !strings.Contains(err.Error(), "preexec: selection") {
		t.Fatalf("err = %v, want the profile's error as a selection error", err)
	}
}
