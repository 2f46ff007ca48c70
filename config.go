package preexec

import (
	"cmp"

	"preexec/internal/advantage"
	"preexec/internal/timing"
)

// MachineConfig describes the simulated machine and the run sizing shared by
// the timing simulator and the selection model. Zero values select the
// paper's base machine (8-wide, 70-cycle memory) and sampling windows.
type MachineConfig struct {
	// Width is the sequencing (fetch/rename/issue/retire) width.
	Width int `json:"width"`
	// MemLat is the main-memory latency in cycles.
	MemLat int `json:"mem_lat"`
	// WarmInsts is the warm-up window (caches + predictor training only).
	WarmInsts int64 `json:"warm_insts"`
	// MeasureInsts is the measured window.
	MeasureInsts int64 `json:"measure_insts"`
}

// DefaultMachine returns the paper's base machine configuration.
func DefaultMachine() MachineConfig {
	return MachineConfig{Width: 8, MemLat: 70, WarmInsts: 30_000, MeasureInsts: 120_000}
}

// SelectionConfig describes the p-thread construction and selection
// parameters (paper §3-§4.1). Zero values select the paper's defaults
// except the Optimize/Merge switches, which default off in the zero value;
// DefaultSelection turns both on, matching the paper's base flow.
type SelectionConfig struct {
	// Scope is the slicing scope in dynamic instructions.
	Scope int `json:"scope"`
	// MaxLen is the maximum p-thread length in instructions.
	MaxLen int `json:"max_len"`
	// Optimize enables p-thread optimization (§3.3).
	Optimize bool `json:"optimize"`
	// Merge enables p-thread merging (§3.3).
	Merge bool `json:"merge"`
	// RegionInsts, if non-zero, selects independently per dynamic region of
	// this many instructions (§4.4, Figure 6).
	RegionInsts int64 `json:"region_insts,omitempty"`

	// ProfileOn optionally profiles a different program for selection — a
	// test input or a short profiling phase (§4.4, Figure 7). Nil selects on
	// the evaluated program itself.
	ProfileOn *Program `json:"-"`
	// ProfileInsts bounds the selection profile (0 = the measured window).
	ProfileInsts int64 `json:"profile_insts,omitempty"`
	// MemLat and Width let cross-validation experiments lie to the selector
	// about the machine (§4.5); 0 means the simulated values.
	MemLat int `json:"sel_mem_lat,omitempty"`
	Width  int `json:"sel_width,omitempty"`
}

// DefaultSelection returns the paper's base selection parameters: scope
// 1024, length 32, optimization and merging on.
func DefaultSelection() SelectionConfig {
	return SelectionConfig{Scope: 1024, MaxLen: 32, Optimize: true, Merge: true}
}

// AblationConfig holds the reproduction's model-refinement switches (see the
// "ablate" experiment, internal/experiments.Ablation). The zero value is the
// refined model.
type AblationConfig struct {
	// ModelLoadLat overrides the latency the SCDH model charges in-slice
	// loads (0 = the default L2 hit latency; 1 = the paper's raw
	// unit-latency model).
	ModelLoadLat float64 `json:"model_load_lat,omitempty"`
	// NoRSThrottle disables the simulator's p-thread injection throttle.
	NoRSThrottle bool `json:"no_rs_throttle,omitempty"`
}

// Config bundles the three decomposed configuration groups. The zero value
// is NOT the paper's base flow (Optimize/Merge default off); use
// DefaultConfig.
type Config struct {
	Machine   MachineConfig   `json:"machine"`
	Selection SelectionConfig `json:"selection"`
	Ablation  AblationConfig  `json:"ablation"`
}

// DefaultConfig returns the paper's base evaluation configuration.
func DefaultConfig() Config {
	return Config{Machine: DefaultMachine(), Selection: DefaultSelection()}
}

// Normalized returns the configuration with every zero field replaced by the
// paper's base value (DefaultMachine, DefaultSelection) — the same
// normalization every pipeline entry point applies before running. The
// profile window defaults to the measured window, and the selector's view of
// the machine to the simulated one. Two configurations that normalize equal
// perform identical stage work, so normalized configurations are the
// cross-process identity the distributed sweep coordinator routes cells by:
// the fields of Machine name a base timing run, and (WarmInsts,
// ProfileInsts, Scope, MaxLen, RegionInsts) plus the profiled program name a
// profile, mirroring the StageCache key structure.
func (c Config) Normalized() Config {
	m, s := DefaultMachine(), DefaultSelection()
	c.Machine.Width = cmp.Or(c.Machine.Width, m.Width)
	c.Machine.MemLat = cmp.Or(c.Machine.MemLat, m.MemLat)
	c.Machine.WarmInsts = cmp.Or(c.Machine.WarmInsts, m.WarmInsts)
	c.Machine.MeasureInsts = cmp.Or(c.Machine.MeasureInsts, m.MeasureInsts)
	c.Selection.Scope = cmp.Or(c.Selection.Scope, s.Scope)
	c.Selection.MaxLen = cmp.Or(c.Selection.MaxLen, s.MaxLen)
	c.Selection.ProfileInsts = cmp.Or(c.Selection.ProfileInsts, c.Machine.MeasureInsts)
	c.Selection.MemLat = cmp.Or(c.Selection.MemLat, c.Machine.MemLat)
	c.Selection.Width = cmp.Or(c.Selection.Width, c.Machine.Width)
	// Optimize, Merge, RegionInsts, ProfileOn, and the ablation switches
	// have no zero-value rewriting; they pass through unchanged.
	return c
}

// The three stage derivations below read a normalized configuration: they
// are the one source of both the stages' inputs and their cache and routing
// identities (see StageKeys).

// timing returns the simulator configuration of a run under mode.
func (c Config) timing(mode Mode) TimingConfig {
	tc := timing.DefaultConfig()
	tc.Width = c.Machine.Width
	tc.MemLat = c.Machine.MemLat
	tc.WarmInsts = c.Machine.WarmInsts
	tc.MaxInsts = c.Machine.MeasureInsts
	tc.Mode = mode
	tc.NoRSThrottle = c.Ablation.NoRSThrottle
	return tc
}

// profileOptions returns the functional profiling stage's options.
func (c Config) profileOptions() ProfileOptions {
	return ProfileOptions{
		WarmInsts:   c.Machine.WarmInsts,
		MaxInsts:    c.Selection.ProfileInsts,
		Scope:       c.Selection.Scope,
		MaxSlice:    c.Selection.MaxLen,
		RegionInsts: c.Selection.RegionInsts,
	}
}

// profileTiming returns the timing configuration whose trace the profile
// reads: the machine's, extended to the profile window when that is the
// longer, so the recording covers the profile's warm-up and window. With
// the default window it is the base run's, and one recording serves both.
func (c Config) profileTiming() TimingConfig {
	tc := c.timing(ModeBase)
	tc.MaxInsts = max(tc.MaxInsts, c.Selection.ProfileInsts)
	return tc
}

// profiledProgram returns the program the selection profiles when p is
// evaluated: SelectionConfig.ProfileOn, or p itself.
func (c Config) profiledProgram(p *Program) *Program {
	return cmp.Or(c.Selection.ProfileOn, p)
}

// selectorOptions returns the selection stage's options — the
// aggregate-advantage parameters and the merging switch — for the given
// unassisted main-thread IPC.
func (c Config) selectorOptions(baseIPC float64) SelectorOptions {
	loadLat := c.Ablation.ModelLoadLat
	if loadLat <= 0 {
		loadLat = 6 // in-slice loads hit the L2 at best (see advantage.Params)
	}
	return SelectorOptions{
		Params: advantage.Params{
			BWSeq:    float64(c.Selection.Width),
			IPC:      baseIPC,
			MemLat:   float64(c.Selection.MemLat),
			MaxLen:   c.Selection.MaxLen,
			Optimize: c.Selection.Optimize,
			LoadLat:  loadLat,
		},
		Merge: c.Selection.Merge,
	}
}
