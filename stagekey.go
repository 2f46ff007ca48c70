package preexec

import (
	"fmt"

	"preexec/internal/pthread"
	"preexec/internal/timing"
)

// This file is the single source of stage-key normalization: the identity
// under which the memoized stages — recorded traces, base timing runs,
// profiles, and a sweep's pre-execution replays — are shared. StageCache
// and the replay memo key structs with the normalized values directly; the
// distributed sweep coordinator renders the same values as strings for
// routing and for modeling the merged cache counters (program pointers
// cannot cross processes, so the benchmark name and scale stand in for
// program identity). Both derive from the helpers here, so the identities
// cannot drift between local memoization and cross-node routing.

// normalizeBaseTiming reduces a timing configuration to the identity of the
// base run it shares: the injection throttle only gates p-thread bursts, so
// ablation cells share the base run, and the p-thread mode is irrelevant to
// the unassisted run, so every mode maps onto the ModeBase identity.
func normalizeBaseTiming(cfg TimingConfig) TimingConfig {
	cfg.NoRSThrottle = false
	cfg.Mode = timing.ModeBase
	return cfg
}

// StageKeySet names the memoized stages one evaluation needs, in the same
// terms the StageCache keys them. A trace is keyed by its run's
// timing.TraceSpan, not the whole machine, so cells of different base runs
// can share one Trace key.
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
	po := n.profileOptions()
	return StageKeySet{
		Base: baseStageKey(bench, scale, n),
		Profile: fmt.Sprintf("prof|%s|%d|wi%d|pi%d|sc%d|ml%d|ri%d",
			bench, scale, po.WarmInsts, po.MaxInsts, po.Scope, po.MaxSlice, po.RegionInsts),
		Trace: fmt.Sprintf("trace|%s|%d|s%d|%s",
			bench, scale, timing.TraceSpan(n.timing(ModeBase)), timing.TraceVersion),
	}
}

// baseStageKey renders the base-run identity of bench at scale under the
// normalized configuration n.
func baseStageKey(bench string, scale int, n Config) string {
	tc := normalizeBaseTiming(n.timing(ModeBase))
	return fmt.Sprintf("base|%s|%d|w%d|l%d|wi%d|mi%d",
		bench, scale, tc.Width, tc.MemLat, tc.WarmInsts, tc.MaxInsts)
}

// ReplayKey renders the identity under which a sweep's replay memo shares
// the pre-execution run of evaluating bench at scale under cfg with the
// selection pts: the base-run identity, the injection throttle, and the
// p-thread set's timing key. The run's mode is always ModeNormal, so it is
// implied. ReplayKey returns "" for an empty selection, whose run is the
// base run (shared under StageKeys' Base).
func ReplayKey(bench string, scale int, cfg Config, pts []*PThread) string {
	if len(pts) == 0 {
		return ""
	}
	n := cfg.Normalized()
	return fmt.Sprintf("replay|%s|t%t|%x", baseStageKey(bench, scale, n), n.Ablation.NoRSThrottle, pthread.TimingKey(pts))
}
