package preexec

import "context"

// TimingFor is the timing configuration the engine derives from cfg for a
// run in mode, so tests can repeat an engine's runs through
// timing.RunContext.
func TimingFor(cfg Config, mode Mode) TimingConfig { return cfg.Normalized().timing(mode) }

// ReplayWaiting gauges the cells blocked on another cell's replay in the
// replay memo that j's engine shares with the jobs planned beside it.
func ReplayWaiting(j Job) int64 { return j.Engine.plan.replays.Stats().Waiting }

// SweepEachCellAlone evaluates the grid in Sweep.Run's cell order, but each
// cell on its own New(WithConfig(cfg)) engine through a Suite of the given
// workers: no shared stage cache, no plan memo, and none of Plan's engine
// derivation. It is the independent reference a memoized sweep is held
// bit-identical to; its result's Cache is zero.
func SweepEachCellAlone(ctx context.Context, benches []SweepBench, points []ConfigPoint, workers int) (*SweepResult, error) {
	jobs := make([]Job, 0, len(benches)*len(points))
	cells := make([]SweepCell, 0, cap(jobs))
	for _, b := range benches {
		for _, pt := range points {
			cfg := pt.Config
			if pt.Derive != nil {
				cfg = pt.Derive(b)
			}
			jobs = append(jobs, Job{Name: b.label() + "/" + pt.Name, Program: b.Program, Engine: New(WithConfig(cfg))})
			cells = append(cells, SweepCell{Bench: b.label(), Point: pt.Name})
		}
	}
	reports, _, err := (&Suite{Workers: workers}).Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	for i := range cells {
		cells[i].Report = reports[i]
	}
	return &SweepResult{Cells: cells}, nil
}
