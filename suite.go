package preexec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// ErrJobNotRun marks the per-job error slot of a suite job that never
// started because an earlier failure (or the caller's context) stopped the
// suite. It distinguishes "never ran" from a job's own failure and from a
// completed zero report.
var ErrJobNotRun = errors.New("preexec: suite job not run (suite stopped early)")

// Job is one unit of suite work: a program evaluated under an engine.
type Job struct {
	// Name labels the job in progress events (default: Program.Name).
	Name    string
	Program *Program
	// Engine overrides the suite's engine for this job (nil = the suite's).
	// Per-job engines are how experiment sweeps evaluate one benchmark under
	// many configurations concurrently.
	Engine *Engine
}

// SuiteEvent is one streaming progress notification. It marshals to JSON —
// with Err rendered as an "error" string and the full report omitted — as
// the per-cell event format of the serve package's streamed sweeps.
type SuiteEvent struct {
	// Index is the job's position in the input slice; Total the job count.
	Index int `json:"index"`
	Total int `json:"total"`
	// Done is the number of jobs completed so far, including this one.
	Done int    `json:"done"`
	Name string `json:"name"`
	// Report is the job's result; nil when Err is non-nil, and for
	// progress sources (e.g. the experiment tables) whose unit of work is
	// not a full evaluation.
	Report *Report `json:"-"`
	Err    error   `json:"-"`
}

// MarshalJSON renders the event compactly for progress streams: the
// positional counters plus Err as a string; the report itself is omitted
// (streamed consumers read it from the final result).
func (ev SuiteEvent) MarshalJSON() ([]byte, error) {
	type plain SuiteEvent // avoid recursing into this method
	out := struct {
		plain
		Error string `json:"error,omitempty"`
	}{plain: plain(ev)}
	if ev.Err != nil {
		out.Error = ev.Err.Error()
	}
	return json.Marshal(out)
}

// ParallelEach runs fn(i) for every i in [0, n) across a bounded worker
// pool (workers <= 0 selects GOMAXPROCS), handing out i in increasing order
// as workers free up. The first error cancels the context passed to the
// remaining calls and is returned once the pool drains; index association
// is the caller's (write results[i] inside fn). A caller with its own
// schedule may treat i as a ticket and pick the item inside fn. Suite.Run,
// the experiment tables and the serve coordinator's sweep (which picks each
// cell by backend load) are built on it.
func ParallelEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		rootErr error
	)
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := fn(ctx, i); err != nil {
					mu.Lock()
					if rootErr == nil {
						rootErr = err
					}
					mu.Unlock()
					cancel()
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if rootErr != nil {
		return rootErr
	}
	return ctx.Err()
}

// Suite evaluates many jobs concurrently across a bounded worker pool.
// Results are returned in input order regardless of completion order, and —
// because every evaluation is hermetic (each simulation clones its own
// architectural state) — are bit-for-bit identical to a serial run.
type Suite struct {
	// Engine is the default engine (nil = New()).
	Engine *Engine
	// Workers bounds concurrent evaluations (<= 0 = GOMAXPROCS).
	Workers int
	// Progress, if non-nil, is called once per completed job. Calls are
	// serialized and may come from any worker goroutine.
	Progress func(SuiteEvent)
}

func (s *Suite) workers(n int) int {
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run evaluates every job and returns their reports in input order. The
// first failure cancels the jobs still in flight and is returned as the
// summary error after all workers drain; reports of jobs that completed
// before the failure are still filled in, and the per-job error slice says
// which is which: nil for a completed job, the job's own error for a failed
// or cancelled one, and ErrJobNotRun for a job the suite never started.
// Cancelling ctx stops the suite the same way.
//
// A job without a program is rejected up front — before any job runs —
// with an error naming the job's index and name.
func (s *Suite) Run(ctx context.Context, jobs []Job) ([]Report, []error, error) {
	if len(jobs) == 0 {
		return nil, nil, ctx.Err()
	}
	for i, job := range jobs {
		if job.Program == nil {
			return nil, nil, fmt.Errorf("preexec: suite job %d (%q) has no program", i, job.Name)
		}
	}
	def := s.Engine
	if def == nil {
		def = New()
	}

	reports := make([]Report, len(jobs))
	errs := make([]error, len(jobs))
	for i := range errs {
		errs[i] = ErrJobNotRun
	}
	var (
		mu   sync.Mutex // guards done and Progress calls
		done int
	)
	err := ParallelEach(ctx, s.workers(len(jobs)), len(jobs), func(ctx context.Context, i int) error {
		job := jobs[i]
		eng := job.Engine
		if eng == nil {
			eng = def
		}
		name := job.Name
		if name == "" {
			name = job.Program.Name
		}
		rep, err := eng.Evaluate(ctx, job.Program)
		if err == nil {
			reports[i] = rep
		}
		errs[i] = err
		mu.Lock()
		done++
		if s.Progress != nil {
			ev := SuiteEvent{Index: i, Total: len(jobs), Done: done, Name: name, Err: err}
			if err == nil {
				ev.Report = &reports[i]
			}
			//lint:ignore lockscope Progress is documented as serialized; the mutex is what provides that contract, and the callback must not call back into the Suite.
			s.Progress(ev)
		}
		mu.Unlock()
		return err
	})
	return reports, errs, err
}

// Evaluate runs the full pipeline on each program concurrently and returns
// the reports in input order. It keeps only the summary error; use Run for
// per-job errors.
func (s *Suite) Evaluate(ctx context.Context, progs ...*Program) ([]Report, error) {
	reports, _, err := s.Run(ctx, jobsFor(progs))
	return reports, err
}

func jobsFor(progs []*Program) []Job {
	jobs := make([]Job, len(progs))
	for i, p := range progs {
		jobs[i] = Job{Program: p}
	}
	return jobs
}

// EvaluateSuite is the one-call convenience: it builds every named
// benchmark at the given scale (all of them when names is empty) and
// evaluates the suite concurrently under eng. Every name and the scale are
// validated before any program is built; scale must be at least 1.
func EvaluateSuite(ctx context.Context, eng *Engine, names []string, scale int, workers int, progress func(SuiteEvent)) ([]Report, error) {
	ws, err := workloadsByName(names)
	if err != nil {
		return nil, err
	}
	if scale < 1 {
		return nil, fmt.Errorf("preexec: suite scale %d, want >= 1", scale)
	}
	progs := make([]*Program, len(ws))
	for i, w := range ws {
		progs[i] = w.Build(scale)
	}
	s := &Suite{Engine: eng, Workers: workers, Progress: progress}
	return s.Evaluate(ctx, progs...)
}
