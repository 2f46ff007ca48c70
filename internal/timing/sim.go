package timing

import (
	"context"
	"math"

	"preexec/internal/program"
	"preexec/internal/pthread"
)

// Run simulates to completion and returns the statistics.
func Run(prog *program.Program, pts []*pthread.PThread, cfg Config) (Stats, error) {
	return RunContext(context.Background(), prog, pts, cfg)
}

// RunContext simulates prog with the static p-threads pts (ignored in
// ModeBase) to completion, honouring ctx: a cancelled or expired context
// stops the simulation within a few thousand iterations and returns
// ctx.Err(). It records the run's trace and replays it, so a run of any
// length holds its trace, about 3 bytes per instruction, while it runs.
func RunContext(ctx context.Context, prog *program.Program, pts []*pthread.PThread, cfg Config) (Stats, error) {
	t, err := RecordTrace(ctx, prog, cfg)
	if err != nil {
		return Stats{}, err
	}
	return Replay(ctx, t, pts, cfg)
}

// runTotal returns the run's instruction total, warm-up included,
// saturating at math.MaxInt64 where the sum would overflow.
func runTotal(cfg Config) int64 {
	if total := cfg.WarmInsts + cfg.MaxInsts; total >= 0 {
		return total
	}
	return math.MaxInt64
}

// ctxCheckMask gates how often the simulation loop polls ctx.Done(): every
// 4096 loop iterations, cheap enough to be invisible in the hot loop yet
// prompt enough (microseconds of host time) for interactive cancellation.
// (Iterations, not cycles: the idle fast-forward makes cycle values sparse.)
const ctxCheckMask = 1<<12 - 1

// unboundedGuard caps the livelock guard. It is astronomically larger than
// any reachable cycle count but far enough from the int64 edge that
// guard-relative arithmetic cannot overflow.
const unboundedGuard = int64(1) << 61

// livelockGuard returns the no-forward-progress backstop for a run of total
// instructions. The naive total*64+1e6 overflows when MaxInsts is the
// unbounded 1<<62 default — wrapping to a small value that falsely tripped
// the guard on unbounded runs longer than ~1M cycles — so it saturates.
func livelockGuard(total int64) int64 {
	if total >= (unboundedGuard-1_000_000)/64 {
		return unboundedGuard
	}
	return total*64 + 1_000_000
}

// subStats returns the measured-region statistics: totals minus the warm-up
// snapshot.
func subStats(total, warm Stats) Stats {
	return Stats{
		Retired:           total.Retired - warm.Retired,
		Launches:          total.Launches - warm.Launches,
		Drops:             total.Drops - warm.Drops,
		PtInsts:           total.PtInsts - warm.PtInsts,
		Loads:             total.Loads - warm.Loads,
		L2Misses:          total.L2Misses - warm.L2Misses,
		MissesCovered:     total.MissesCovered - warm.MissesCovered,
		MissesFullCovered: total.MissesFullCovered - warm.MissesFullCovered,
		BrLookups:         total.BrLookups - warm.BrLookups,
		BrMispred:         total.BrMispred - warm.BrMispred,
		FetchStalls:       total.FetchStalls - warm.FetchStalls,
	}
}
