package preexec

import (
	"fmt"

	"preexec/internal/timing"
)

// This file is the single source of stage-key normalization: the identity
// under which the memoized stages — base timing runs, profiles, and recorded
// base-run traces — are shared. StageCache keys structs with the normalized
// values directly; the distributed sweep coordinator renders the same values
// as routing strings (program pointers cannot cross processes, so the
// benchmark name and scale stand in for program identity). Both derive from
// the helpers here, so the identities cannot drift between local memoization
// and cross-node routing.

// normalizeBaseTiming reduces a timing configuration to the identity of the
// base run (and recorded trace) it shares: the injection throttle only gates
// p-thread bursts, so ablation cells share the base run, and the p-thread
// mode is irrelevant to both the unassisted run and the recorded front-end
// stream, so every mode maps onto the ModeBase identity.
func normalizeBaseTiming(cfg TimingConfig) TimingConfig {
	cfg.NoRSThrottle = false
	cfg.Mode = timing.ModeBase
	return cfg
}

// StageKeySet names the memoized stages one evaluation needs, in the same
// terms the StageCache keys them. Trace is empty when the configuration's
// run is too large to record (see the replay notes on Simulator) — an
// untraceable cell performs no trace-stage work.
type StageKeySet struct {
	Base    string
	Profile string
	Trace   string
}

// StageKeys renders the stage identities of evaluating bench at the given
// scale under cfg. Two cells with equal keys perform identical stage work:
// servers build programs once per (workload, scale), so the (bench, scale)
// pair substitutes exactly for the *Program pointer in StageCache's keys.
func StageKeys(bench string, scale int, cfg Config) StageKeySet {
	n := cfg.Normalized()
	tc := normalizeBaseTiming(n.timing(ModeBase))
	po := n.profileOptions()
	ks := StageKeySet{
		Base: fmt.Sprintf("base|%s|%d|w%d|l%d|wi%d|mi%d",
			bench, scale, tc.Width, tc.MemLat, tc.WarmInsts, tc.MaxInsts),
		Profile: fmt.Sprintf("prof|%s|%d|wi%d|pi%d|sc%d|ml%d|ri%d",
			bench, scale, po.WarmInsts, po.MaxInsts, po.Scope, po.MaxSlice, po.RegionInsts),
	}
	if timing.Traceable(tc) {
		// The simulator fingerprint is part of the trace identity, so a
		// timing-core change invalidates routed traces exactly as it
		// invalidates locally cached ones.
		ks.Trace = fmt.Sprintf("trace|%s|%d|w%d|l%d|wi%d|mi%d|%s",
			bench, scale, tc.Width, tc.MemLat, tc.WarmInsts, tc.MaxInsts, timing.TraceVersion)
	}
	return ks
}
