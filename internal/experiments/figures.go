package experiments

import (
	"context"
	"fmt"

	"preexec"
	"preexec/internal/program"
)

// evalConfigs runs one evaluation per (benchmark, named config) cell
// through the memoized sweep subsystem — cells differing only in selection
// or ablation knobs share base timing runs and profiles — and collects
// figure rows in deterministic (benchmark-major) order. mutate customizes
// the base configuration for each named variant; train and test are the
// workload's two inputs.
func (o Options) evalConfigs(
	ctx context.Context,
	names []string,
	mutate func(cfg *preexec.Config, name string, train, test *program.Program),
) ([]FigRow, error) {
	o = o.fill()
	ws, err := o.workloads()
	if err != nil {
		return nil, err
	}
	benches := make([]preexec.SweepBench, len(ws))
	for i, w := range ws {
		benches[i] = preexec.SweepBench{Name: w.Name, Program: w.Build(o.Scale), Test: w.BuildTest(o.Scale)}
	}
	points := make([]preexec.ConfigPoint, len(names))
	for i, name := range names {
		points[i] = preexec.ConfigPoint{
			Name: name,
			Derive: func(b preexec.SweepBench) preexec.Config {
				cfg := o.config()
				mutate(&cfg, name, b.Program, b.Test)
				return cfg
			},
		}
	}
	sweep := &preexec.Sweep{Workers: o.Workers, Progress: o.Progress}
	res, err := sweep.Run(ctx, benches, points)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	rows := make([]FigRow, len(res.Cells))
	for i, cell := range res.Cells {
		rows[i] = figRow(cell.Bench, cell.Point, cell.Report)
	}
	return rows, nil
}

// Figure4 measures the combined impact of slicing scope and maximum
// p-thread length (paper Figure 4): four scope/length combinations from
// tightly constrained to fully relaxed. The paper's trends: all five
// diagnostics grow as constraints relax, then saturate.
func Figure4(ctx context.Context, opts Options) ([]FigRow, error) {
	combos := []struct {
		name   string
		scope  int
		maxLen int
	}{
		{"256/8", 256, 8},
		{"512/16", 512, 16},
		{"1024/32", 1024, 32},
		{"2048/64", 2048, 64},
	}
	names := make([]string, len(combos))
	for i, c := range combos {
		names[i] = c.name
	}
	return opts.evalConfigs(ctx, names, func(cfg *preexec.Config, name string, _, _ *program.Program) {
		for _, c := range combos {
			if c.name == name {
				cfg.Selection.Scope, cfg.Selection.MaxLen = c.scope, c.maxLen
			}
		}
	})
}

// Figure5 measures the impact of p-thread optimization and merging (paper
// Figure 5): neither, merging only, optimization only, and both. The
// paper's trends: optimization shortens p-threads and unlocks previously
// unprofitable candidates (more launches, more coverage); merging reduces
// launch counts and overhead.
func Figure5(ctx context.Context, opts Options) ([]FigRow, error) {
	names := []string{"none", "merge", "opt", "opt+merge"}
	return opts.evalConfigs(ctx, names, func(cfg *preexec.Config, name string, _, _ *program.Program) {
		cfg.Selection.Optimize = name == "opt" || name == "opt+merge"
		cfg.Selection.Merge = name == "merge" || name == "opt+merge"
	})
}

// Figure6 measures p-thread selection granularity (paper Figure 6): the
// whole sample versus per-region selection at successively finer regions.
// The paper's regions are 100M/10M/1M instructions of a ~100M sample; ours
// scale to the measured window (full, 1/3, 1/6, 1/12).
func Figure6(ctx context.Context, opts Options) ([]FigRow, error) {
	names := []string{"full", "coarse", "medium", "fine"}
	frac := map[string]int64{"coarse": 3, "medium": 6, "fine": 12}
	return opts.evalConfigs(ctx, names, func(cfg *preexec.Config, name string, _, _ *program.Program) {
		if f, ok := frac[name]; ok {
			cfg.Selection.RegionInsts = cfg.Machine.MeasureInsts / f
		}
	})
}

// Figure7 measures the selection input data-set (paper Figure 7): perfect
// information (select on the measured run itself), the dynamic scenario
// (select on a short profiling phase of the same input, modeling an on-line
// JIT), and the static scenario (select on the test input, modeling a
// profile-driven static compiler). The paper's trends: dynamic ~= perfect;
// static works except where the test working set fits the L2 (twolf,
// vpr.p), which select no p-threads at all.
func Figure7(ctx context.Context, opts Options) ([]FigRow, error) {
	names := []string{"perfect", "dynamic", "static"}
	return opts.evalConfigs(ctx, names, func(cfg *preexec.Config, name string, train, test *program.Program) {
		switch name {
		case "dynamic":
			cfg.Selection.ProfileInsts = cfg.Machine.MeasureInsts / 5
		case "static":
			cfg.Selection.ProfileOn = test
			cfg.Selection.ProfileInsts = cfg.Machine.MeasureInsts / 2
		}
	})
}

// Figure8 is the memory-latency cross-validation (paper Figure 8): p-thread
// sets are selected assuming 70- or 140-cycle memory (t70, t140) and each
// set is simulated under both latencies. Config names read pSIM(tSEL). The
// paper's trends: self-validation beats cross-validation; higher assumed
// latency yields longer p-threads that fully cover more misses.
func Figure8(ctx context.Context, opts Options) ([]FigRow, error) {
	names := []string{"p140(t70)", "p140(t140)", "p70(t70)", "p70(t140)"}
	return opts.evalConfigs(ctx, names, func(cfg *preexec.Config, name string, _, _ *program.Program) {
		switch name {
		case "p140(t70)":
			cfg.Machine.MemLat, cfg.Selection.MemLat = 140, 70
		case "p140(t140)":
			cfg.Machine.MemLat, cfg.Selection.MemLat = 140, 140
		case "p70(t70)":
			cfg.Machine.MemLat, cfg.Selection.MemLat = 70, 70
		case "p70(t140)":
			cfg.Machine.MemLat, cfg.Selection.MemLat = 70, 140
		}
	})
}

// Width is the processor-width cross-validation the paper reports in prose
// (§4.5): p-threads selected for a 4-wide or 8-wide machine, each simulated
// on both. Config names read pSIM(tSEL).
func Width(ctx context.Context, opts Options) ([]FigRow, error) {
	names := []string{"p4(t4)", "p4(t8)", "p8(t8)", "p8(t4)"}
	return opts.evalConfigs(ctx, names, func(cfg *preexec.Config, name string, _, _ *program.Program) {
		switch name {
		case "p4(t4)":
			cfg.Machine.Width, cfg.Selection.Width = 4, 4
		case "p4(t8)":
			cfg.Machine.Width, cfg.Selection.Width = 4, 8
		case "p8(t8)":
			cfg.Machine.Width, cfg.Selection.Width = 8, 8
		case "p8(t4)":
			cfg.Machine.Width, cfg.Selection.Width = 8, 4
		}
	})
}
