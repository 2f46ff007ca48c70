// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the synthetic benchmark suite: Table 1 (benchmark
// characterization), Table 2 (primary results and model validation), and
// Figures 4-8 (slicing scope & p-thread length, optimization & merging,
// selection granularity, selection input data-set, memory-latency
// cross-validation), plus the processor-width cross-validation the paper
// describes in prose (§4.5).
//
// Every experiment runs on the public preexec API: one Engine per
// (benchmark, configuration) cell, evaluated concurrently across the suite
// runner's bounded worker pool with deterministic row ordering, and
// cancellable through the context threaded into every entry point.
//
// Absolute numbers are not expected to match the paper — the substrate is a
// from-scratch simulator running synthetic kernels — but the qualitative
// shape (who wins, where effects saturate, how cross-validation orders) is;
// EXPERIMENTS.md records both sides for every experiment.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"preexec"
	"preexec/internal/stats"
	"preexec/internal/timing"
	"preexec/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies workload iteration counts (default 1).
	Scale int
	// Warm and Measure size the simulation windows (defaults 30k/120k).
	Warm, Measure int64
	// Benchmarks restricts the suite (default: all ten).
	Benchmarks []string
	// Workers bounds concurrent evaluations (<= 0 = GOMAXPROCS).
	Workers int
	// Progress, if non-nil, streams per-cell completion events.
	Progress func(preexec.SuiteEvent)
	// NoCache disables stage memoization in the figure sweeps: every cell
	// recomputes its own base run and profile (texp -cache=off).
	NoCache bool
}

func (o Options) fill() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Warm <= 0 {
		o.Warm = 30_000
	}
	if o.Measure <= 0 {
		o.Measure = 120_000
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workload.Names()
	}
	return o
}

// config is the paper's base configuration sized to this run's windows.
func (o Options) config() preexec.Config {
	cfg := preexec.DefaultConfig()
	cfg.Machine.WarmInsts = o.Warm
	cfg.Machine.MeasureInsts = o.Measure
	return cfg
}

func (o Options) workloads() ([]workload.Workload, error) {
	out := make([]workload.Workload, 0, len(o.Benchmarks))
	for _, name := range o.Benchmarks {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// progressEmitter serializes SuiteEvents for the table experiments, which
// run through preexec.ParallelEach rather than the Suite runner (their unit
// of work is not a plain evaluation, so Report is nil in their events).
type progressEmitter struct {
	mu    sync.Mutex
	done  int
	total int
	fn    func(preexec.SuiteEvent)
}

func newProgressEmitter(total int, fn func(preexec.SuiteEvent)) *progressEmitter {
	return &progressEmitter{total: total, fn: fn}
}

func (e *progressEmitter) emit(index int, name string, err error) {
	if e == nil || e.fn == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.done++
	//lint:ignore lockscope the emitter exists to serialize progress callbacks; done counting and delivery must be atomic, and fn never re-enters the emitter.
	e.fn(preexec.SuiteEvent{Index: index, Total: e.total, Done: e.done, Name: name, Err: err})
}

// FigRow is one bar of a paper figure: the five diagnostics every graph
// reports (miss coverage, full coverage, instruction overhead, mean dynamic
// p-thread length, percent speedup), tagged with benchmark and configuration.
type FigRow struct {
	Bench  string `json:"bench"`
	Config string `json:"config"`

	CoveragePct float64 `json:"coverage_pct"`
	FullPct     float64 `json:"full_pct"`
	OverheadPct float64 `json:"overhead_pct"` // p-thread instructions per 100 retired
	AvgPtLen    float64 `json:"avg_pt_len"`
	SpeedupPct  float64 `json:"speedup_pct"`
	PThreads    int     `json:"pthreads"`
}

func figRow(bench, config string, rep preexec.Report) FigRow {
	return FigRow{
		Bench:       bench,
		Config:      config,
		CoveragePct: rep.CoveragePct(),
		FullPct:     rep.FullCoveragePct(),
		OverheadPct: rep.Pre.OverheadFrac() * 100,
		AvgPtLen:    rep.Pre.AvgPtLen,
		SpeedupPct:  rep.SpeedupPct(),
		PThreads:    len(rep.PThreads),
	}
}

// FormatFigRows renders figure rows as an aligned table.
func FormatFigRows(rows []FigRow) string {
	t := stats.NewTable("bench", "config", "cover%", "full%", "ovhd%", "ptlen", "speedup%", "pthreads")
	for _, r := range rows {
		t.Row(r.Bench, r.Config, r.CoveragePct, r.FullPct, r.OverheadPct, r.AvgPtLen, r.SpeedupPct, r.PThreads)
	}
	return t.String()
}

// SuiteReports evaluates the whole suite under the paper's base
// configuration — concurrently — and returns the full public reports in
// benchmark order (the machine-readable counterpart of Table 2's measured
// block).
func SuiteReports(ctx context.Context, opts Options) ([]preexec.Report, error) {
	opts = opts.fill()
	eng := preexec.New(preexec.WithConfig(opts.config()))
	return preexec.EvaluateSuite(ctx, eng, opts.Benchmarks, opts.Scale, opts.Workers, opts.Progress)
}

// Table1Row characterizes one benchmark (paper Table 1).
type Table1Row struct {
	Bench      string  `json:"bench"`
	Insts      int64   `json:"insts"`
	Loads      int64   `json:"loads"`
	L2Misses   int64   `json:"l2_misses"`
	IPC        float64 `json:"ipc"`
	PerfectIPC float64 `json:"perfect_ipc"` // IPC with a (near-)perfect L2
}

// Table1 regenerates the benchmark characterization.
func Table1(ctx context.Context, opts Options) ([]Table1Row, error) {
	opts = opts.fill()
	ws, err := opts.workloads()
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, len(ws))
	progress := newProgressEmitter(len(ws), opts.Progress)
	err = preexec.ParallelEach(ctx, opts.Workers, len(ws), func(ctx context.Context, i int) (retErr error) {
		defer func() { progress.emit(i, ws[i].Name, retErr) }()
		w := ws[i]
		p := w.Build(opts.Scale)
		cfg := timing.DefaultConfig()
		cfg.WarmInsts = opts.Warm
		cfg.MaxInsts = opts.Measure
		base, err := timing.RunContext(ctx, p, nil, cfg)
		if err != nil {
			return fmt.Errorf("table1 %s: %w", w.Name, err)
		}
		perfectCfg := cfg
		perfectCfg.MemLat = 1 // an L2 miss costs (almost) nothing
		perfect, err := timing.RunContext(ctx, p, nil, perfectCfg)
		if err != nil {
			return fmt.Errorf("table1 %s (perfect): %w", w.Name, err)
		}
		rows[i] = Table1Row{
			Bench:      w.Name,
			Insts:      base.Retired,
			Loads:      base.Loads,
			L2Misses:   base.L2Misses,
			IPC:        base.IPC,
			PerfectIPC: perfect.IPC,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatTable1 renders Table 1.
func FormatTable1(rows []Table1Row) string {
	t := stats.NewTable("bench", "insts", "loads", "L2 misses", "IPC", "perfect-L2 IPC")
	for _, r := range rows {
		t.Row(r.Bench, r.Insts, r.Loads, r.L2Misses, r.IPC, r.PerfectIPC)
	}
	return t.String()
}

// Table2Row is the paper's primary-results-and-validation row: the measured
// pre-execution block and the framework's predictions of the same
// quantities (§4.2-4.3).
type Table2Row struct {
	Bench   string  `json:"bench"`
	BaseIPC float64 `json:"base_ipc"`

	// Measured (Pre-exec block).
	PreIPC      float64 `json:"pre_ipc"`
	Launches    int64   `json:"launches"`
	InstsPerPt  float64 `json:"insts_per_pt"`
	Covered     int64   `json:"covered"`
	FullCovered int64   `json:"full_covered"`
	// Validation IPCs.
	OverheadExecIPC float64 `json:"overhead_exec_ipc"` // p-threads execute, no cache access
	OverheadSeqIPC  float64 `json:"overhead_seq_ipc"`  // p-threads consume sequencing only
	LatencyIPC      float64 `json:"latency_ipc"`       // p-threads free of sequencing cost

	// Predicted (Predict block).
	PredIPC         float64 `json:"pred_ipc"`
	PredLaunches    int64   `json:"pred_launches"`
	PredInstsPerPt  float64 `json:"pred_insts_per_pt"`
	PredCovered     int64   `json:"pred_covered"`
	PredFullCovered int64   `json:"pred_full_covered"`
}

// Table2 regenerates the primary performance and validation results. Each
// benchmark's full row — evaluation plus the three diagnostic re-simulations
// — is one unit of parallel work, on an engine whose stage cache lets all
// five timing runs replay one recorded trace.
func Table2(ctx context.Context, opts Options) ([]Table2Row, error) {
	opts = opts.fill()
	ws, err := opts.workloads()
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(ws))
	progress := newProgressEmitter(len(ws), opts.Progress)
	err = preexec.ParallelEach(ctx, opts.Workers, len(ws), func(ctx context.Context, i int) (retErr error) {
		defer func() { progress.emit(i, ws[i].Name, retErr) }()
		w := ws[i]
		p := w.Build(opts.Scale)
		eng := preexec.New(preexec.WithConfig(opts.config()), preexec.WithStageCache(preexec.NewStageCache()))
		rep, err := eng.Evaluate(ctx, p)
		if err != nil {
			return fmt.Errorf("table2 %s: %w", w.Name, err)
		}
		row := Table2Row{
			Bench:           w.Name,
			BaseIPC:         rep.Base.IPC,
			PreIPC:          rep.Pre.IPC,
			Launches:        rep.Pre.Launches,
			InstsPerPt:      rep.Pre.AvgPtLen,
			Covered:         rep.Pre.MissesCovered,
			FullCovered:     rep.Pre.MissesFullCovered,
			PredIPC:         rep.PredIPC,
			PredLaunches:    rep.Pred.Launches,
			PredInstsPerPt:  rep.Pred.InstsPerPThread,
			PredCovered:     rep.Pred.MissesCovered,
			PredFullCovered: rep.Pred.MissesFullCov,
		}
		for _, m := range []struct {
			mode preexec.Mode
			dst  *float64
		}{
			{preexec.ModeOverheadExecute, &row.OverheadExecIPC},
			{preexec.ModeOverheadSequence, &row.OverheadSeqIPC},
			{preexec.ModeLatencyOnly, &row.LatencyIPC},
		} {
			st, err := eng.Simulate(ctx, p, rep.PThreads, m.mode)
			if err != nil {
				return fmt.Errorf("table2 %s (%v): %w", w.Name, m.mode, err)
			}
			*m.dst = st.IPC
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatTable2 renders Table 2.
func FormatTable2(rows []Table2Row) string {
	t := stats.NewTable("bench", "base", "pre", "launch", "len", "cover", "full",
		"ovh-x", "ovh-s", "lat", "| pred", "launch", "len", "cover", "full")
	for _, r := range rows {
		t.Row(r.Bench, r.BaseIPC, r.PreIPC, r.Launches, r.InstsPerPt, r.Covered, r.FullCovered,
			r.OverheadExecIPC, r.OverheadSeqIPC, r.LatencyIPC,
			r.PredIPC, r.PredLaunches, r.PredInstsPerPt, r.PredCovered, r.PredFullCovered)
	}
	return t.String()
}
