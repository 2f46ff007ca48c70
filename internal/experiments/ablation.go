package experiments

import (
	"context"

	"preexec"
	"preexec/internal/program"
)

// Ablation measures the two refinements this reproduction adds on top of
// the paper's letter:
//
//   - "unit-loadlat": charge in-slice loads unit latency in the SCDH model,
//     as the paper's worked example does. Dependent-miss chains (mcf) then
//     look hoistable and get selected, reproducing the over-selection the
//     paper's own mcf commentary describes.
//   - "no-throttle": disable the simulator's RS-pressure injection
//     throttle; miss-laden p-thread bodies can then park in the shared
//     reservation stations and squeeze the main thread.
//   - "neither": both ablated at once (the worst case: mcf selects deep
//     dependent-load chains AND they monopolize the reservation stations).
//
// "full" is the default configuration for reference.
func Ablation(ctx context.Context, opts Options) ([]FigRow, error) {
	names := []string{"full", "unit-loadlat", "no-throttle", "neither"}
	return opts.evalConfigs(ctx, names, func(cfg *preexec.Config, name string, _, _ *program.Program) {
		switch name {
		case "unit-loadlat":
			cfg.Ablation.ModelLoadLat = 1
		case "no-throttle":
			cfg.Ablation.NoRSThrottle = true
		case "neither":
			cfg.Ablation.ModelLoadLat = 1
			cfg.Ablation.NoRSThrottle = true
		}
	})
}
