package preexec_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"preexec"
)

func suiteBenches(t testing.TB, names ...string) []*preexec.Program {
	t.Helper()
	progs := make([]*preexec.Program, len(names))
	for i, n := range names {
		progs[i] = buildBench(t, n)
	}
	return progs
}

// TestSuiteParallelMatchesSerial is the acceptance check for the concurrent
// runner: the worker pool must produce reports bit-for-bit identical to a
// serial run, in the same (input) order.
func TestSuiteParallelMatchesSerial(t *testing.T) {
	progs := suiteBenches(t, "vpr.p", "crafty", "vpr.r", "bzip2")
	eng := preexec.New(preexec.WithMachine(testMachine()))

	serial, err := (&preexec.Suite{Engine: eng, Workers: 1}).Evaluate(t.Context(), progs...)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&preexec.Suite{Engine: eng, Workers: 4}).Evaluate(t.Context(), progs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(progs) || len(parallel) != len(progs) {
		t.Fatalf("lengths: serial %d parallel %d, want %d", len(serial), len(parallel), len(progs))
	}
	for i := range serial {
		if serial[i].Program != progs[i].Name {
			t.Errorf("result %d out of order: %s, want %s", i, serial[i].Program, progs[i].Name)
		}
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("%s: parallel report diverges from serial", progs[i].Name)
		}
	}
}

// TestSuiteProgressStreaming checks the streaming callback: one event per
// job, serialized, with a monotonically increasing Done counter.
func TestSuiteProgressStreaming(t *testing.T) {
	progs := suiteBenches(t, "vpr.p", "crafty", "vpr.r")
	var events []preexec.SuiteEvent
	s := &preexec.Suite{
		Engine:   preexec.New(preexec.WithMachine(testMachine())),
		Workers:  3,
		Progress: func(ev preexec.SuiteEvent) { events = append(events, ev) },
	}
	if _, err := s.Evaluate(t.Context(), progs...); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(progs) {
		t.Fatalf("events = %d, want %d", len(events), len(progs))
	}
	seen := map[int]bool{}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != len(progs) {
			t.Errorf("event %d: Done/Total = %d/%d, want %d/%d", i, ev.Done, ev.Total, i+1, len(progs))
		}
		if ev.Err != nil || ev.Report == nil {
			t.Errorf("event %d: err=%v report=%v", i, ev.Err, ev.Report)
		}
		if seen[ev.Index] {
			t.Errorf("index %d reported twice", ev.Index)
		}
		seen[ev.Index] = true
		if ev.Report != nil && ev.Report.Program != progs[ev.Index].Name {
			t.Errorf("event %d: report for %s at index %d (%s)", i, ev.Report.Program, ev.Index, progs[ev.Index].Name)
		}
	}
}

// failingGate fails every stage admission of the program named failOn, to
// exercise suite error propagation and cancellation of in-flight jobs.
type failingGate struct{ failOn string }

func (g failingGate) Admit(_ context.Context, _, bench string) (func(), error) {
	if bench == g.failOn {
		return nil, fmt.Errorf("injected failure for %s", bench)
	}
	return func() {}, nil
}

func TestSuiteErrorPropagates(t *testing.T) {
	progs := suiteBenches(t, "vpr.p", "crafty", "vpr.r")
	eng := preexec.New(
		preexec.WithMachine(testMachine()),
		preexec.WithStageGate(failingGate{failOn: "crafty"}),
	)
	_, err := (&preexec.Suite{Engine: eng, Workers: 2}).Evaluate(t.Context(), progs...)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("err = %v, want injected failure", err)
	}
}

// TestSuiteNilProgram checks a job without a program is rejected at plan
// time — before any job runs — with the job's index and name in the error.
func TestSuiteNilProgram(t *testing.T) {
	var events int
	s := &preexec.Suite{Progress: func(preexec.SuiteEvent) { events++ }}
	jobs := []preexec.Job{{Name: "ok", Program: buildBench(t, "crafty")}, {Name: "empty"}}
	reports, errs, err := s.Run(t.Context(), jobs)
	if err == nil || !strings.Contains(err.Error(), "has no program") {
		t.Fatalf("err = %v, want no-program error", err)
	}
	if !strings.Contains(err.Error(), "job 1") || !strings.Contains(err.Error(), `"empty"`) {
		t.Errorf("err = %v, want the job index and name", err)
	}
	if reports != nil || errs != nil {
		t.Error("plan-time rejection should not return reports or per-job errors")
	}
	if events != 0 {
		t.Errorf("plan-time rejection ran %d jobs, want 0", events)
	}
}

// TestSuitePartialFailure is the regression test for the partial-failure
// reporting contract: after a mid-suite failure, callers can tell completed
// jobs (nil per-job error, report filled in) from the failed job (its own
// error) and from jobs the suite never started (ErrJobNotRun) — a completed
// zero-report is no longer ambiguous.
func TestSuitePartialFailure(t *testing.T) {
	progs := suiteBenches(t, "vpr.p", "crafty", "vpr.r")
	eng := preexec.New(
		preexec.WithMachine(testMachine()),
		preexec.WithStageGate(failingGate{failOn: "crafty"}),
	)
	jobs := make([]preexec.Job, len(progs))
	for i, p := range progs {
		jobs[i] = preexec.Job{Program: p}
	}
	// One worker: vpr.p completes before crafty fails; vpr.r never completes.
	reports, errs, err := (&preexec.Suite{Engine: eng, Workers: 1}).Run(t.Context(), jobs)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("summary err = %v, want the first failure", err)
	}
	if len(reports) != 3 || len(errs) != 3 {
		t.Fatalf("lengths: %d reports, %d errs, want 3 each", len(reports), len(errs))
	}
	if errs[0] != nil {
		t.Errorf("completed job err = %v, want nil", errs[0])
	}
	if reports[0].Program != "vpr.p" || reports[0].Base.Retired == 0 {
		t.Errorf("completed job's report missing: %+v", reports[0])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "injected failure") {
		t.Errorf("failed job err = %v, want injected failure", errs[1])
	}
	// The trailing job either never started (ErrJobNotRun) or was cancelled
	// mid-flight — never a silent nil beside a zero report.
	if errs[2] == nil {
		t.Error("unstarted job err = nil, indistinguishable from success")
	}
	if !errors.Is(errs[2], preexec.ErrJobNotRun) && !errors.Is(errs[2], context.Canceled) {
		t.Errorf("unstarted job err = %v, want ErrJobNotRun or context.Canceled", errs[2])
	}
	if reports[2].Program != "" {
		t.Errorf("unstarted job has a report: %+v", reports[2])
	}
}

// TestEvaluateSuiteValidatesUpFront pins the up-front validation contract:
// a bad scale and a bad trailing name both fail before any program is
// evaluated.
func TestEvaluateSuiteValidatesUpFront(t *testing.T) {
	eng := preexec.New(preexec.WithMachine(testMachine()))
	if _, err := preexec.EvaluateSuite(t.Context(), eng, []string{"crafty"}, 0, 1, nil); err == nil ||
		!strings.Contains(err.Error(), "scale") {
		t.Errorf("scale 0: err = %v, want scale error", err)
	}
	if _, err := preexec.EvaluateSuite(t.Context(), eng, []string{"crafty"}, -3, 1, nil); err == nil {
		t.Error("scale -3 should error, not clamp to 1")
	}
	var events int
	_, err := preexec.EvaluateSuite(t.Context(), eng, []string{"crafty", "nope"}, 1, 1,
		func(preexec.SuiteEvent) { events++ })
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("bad trailing name: err = %v, want unknown-benchmark error", err)
	}
	if events != 0 {
		t.Errorf("bad trailing name still evaluated %d jobs, want 0", events)
	}
}

// TestSuiteCancellation proves cancelling the suite context stops the pool
// promptly and surfaces context.Canceled.
func TestSuiteCancellation(t *testing.T) {
	// Large evaluations so cancellation lands mid-flight.
	var progs []*preexec.Program
	for _, n := range []string{"mcf", "gcc", "parser", "vortex"} {
		w, err := preexec.WorkloadByName(n)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, w.Build(4))
	}
	machine := preexec.DefaultMachine()
	machine.MeasureInsts = 4_000_000
	eng := preexec.New(preexec.WithMachine(machine))

	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Bool
	go func() {
		for !started.Load() {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	started.Store(true)
	start := time.Now()
	_, err := (&preexec.Suite{Engine: eng, Workers: 2}).Evaluate(ctx, progs...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("suite cancellation took %v, want prompt return", elapsed)
	}
}

// TestEvaluateSuiteConvenience exercises the one-call helper end to end.
func TestEvaluateSuiteConvenience(t *testing.T) {
	eng := preexec.New(preexec.WithMachine(testMachine()))
	reps, err := preexec.EvaluateSuite(t.Context(), eng, []string{"vpr.p", "crafty"}, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].Program != "vpr.p" || reps[1].Program != "crafty" {
		t.Fatalf("unexpected reports: %+v", reps)
	}
	if _, err := preexec.EvaluateSuite(t.Context(), eng, []string{"nope"}, 1, 1, nil); err == nil {
		t.Error("unknown benchmark should error")
	}
}
