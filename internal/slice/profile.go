package slice

import (
	"context"
	"fmt"
	"sync"

	"preexec/internal/cache"
	"preexec/internal/cpu"
	"preexec/internal/isa"
	"preexec/internal/program"
	"preexec/internal/sampling"
	"preexec/internal/trace"
)

// trackerPool recycles dataflow trackers across profiling runs: a tracker's
// ring is Scope entries (~100KB at the default 1024), and engines and the
// suite runner profile every workload per Evaluate, so reuse removes the
// dominant per-profile allocation. Trackers are Reset before use and retain
// no references into published results.
var trackerPool = sync.Pool{New: func() any { return new(trace.Tracker) }}

// ProfileOptions configures a functional profiling run.
type ProfileOptions struct {
	// WarmInsts executes this many instructions first with cache training
	// only — no miss recording, no trigger counting — mirroring the paper's
	// sampling warm-up phases so compulsory cold misses do not pollute the
	// statistics.
	WarmInsts int64
	// MaxInsts bounds the measured dynamic instruction count (0 means run
	// to HALT, which is an error for non-terminating programs; workloads
	// terminate).
	MaxInsts int64
	// Scope is the slicing scope in dynamic instructions (default 1024).
	Scope int
	// MaxSlice is the maximum slice/p-thread length (default 32).
	MaxSlice int
	// RegionInsts, if non-zero, splits the run into regions of this many
	// dynamic instructions, each with its own Forest (selection granularity,
	// paper §4.4 Figure 6).
	RegionInsts int64
	// Hierarchy overrides the cache hierarchy (default: the paper's).
	Hierarchy *cache.Hierarchy
	// Sampling, if non-nil, applies the paper's cyclic off/warm/on sampling
	// (§4.1) instead of the single warm-up + measure window: off phases
	// fast-forward, warm phases train the caches, and only on phases record
	// misses and trigger counts. MaxInsts then bounds the *measured*
	// instructions. WarmInsts is ignored when Sampling is set.
	Sampling *sampling.Schedule
}

func (o *ProfileOptions) fill() {
	if o.Scope <= 0 {
		o.Scope = 1024
	}
	if o.MaxSlice <= 0 {
		o.MaxSlice = 32
	}
	if o.Hierarchy == nil {
		o.Hierarchy = cache.DefaultHierarchy()
	}
	if o.MaxInsts <= 0 {
		o.MaxInsts = 1 << 62
	}
}

// Region is one profiled dynamic region.
type Region struct {
	Start, End int64 // dynamic instruction range [Start, End)
	Forest     *Forest
}

// Profile runs the program functionally through the cache hierarchy,
// building slice trees for every dynamic L2 load miss. It returns one Region
// per RegionInsts instructions (a single region if RegionInsts is 0).
func Profile(p *program.Program, opts ProfileOptions) ([]Region, error) {
	return ProfileContext(context.Background(), p, opts)
}

// ctxCheckMask gates how often the profiling loops poll ctx.Done(): every
// 4096 instructions, invisible in the hot loop but prompt for cancellation.
const ctxCheckMask = 1<<12 - 1

// ProfileContext is Profile honouring ctx: a cancelled or expired context
// stops the functional run within a few thousand instructions and returns
// ctx.Err().
func ProfileContext(ctx context.Context, p *program.Program, opts ProfileOptions) ([]Region, error) {
	opts.fill()
	sl := &Slicer{MaxLen: opts.MaxSlice}
	return profile(ctx, p, opts, sl.Backward)
}

// profile is ProfileContext with the backward slicer supplied by the caller
// (tests pin the slicer against a frozen reference through it). opts must be
// filled.
func profile(ctx context.Context, p *program.Program, opts ProfileOptions, backward func(*trace.Tracker, *trace.Entry) []Inst) ([]Region, error) {
	done := ctx.Done()
	if opts.Sampling != nil {
		if err := opts.Sampling.Validate(); err != nil {
			return nil, err
		}
	}
	st := cpu.New(p)
	tr := trackerPool.Get().(*trace.Tracker)
	tr.Reset(opts.Scope)
	defer trackerPool.Put(tr)

	if opts.Sampling == nil {
		// Warm-up: train the caches without recording anything.
		for w := int64(0); w < opts.WarmInsts && !st.Halted; w++ {
			if done != nil && w&ctxCheckMask == 0 {
				select {
				case <-done:
					return nil, ctx.Err()
				default:
				}
			}
			e, err := st.Step()
			if err != nil {
				return nil, fmt.Errorf("profile %s (warm-up): %w", p.Name, err)
			}
			if e.Inst.IsMem() {
				opts.Hierarchy.Access(e.EffAddr, e.Inst.Op == isa.ST)
			}
		}
	}

	var regions []Region
	forest := NewForest()
	// Region boundaries are absolute dynamic instruction indices (the
	// timing simulator gates launches on absolute trigger positions), so
	// after warm-up the measured window starts at st.Count.
	regionStart := st.Count
	var regionMeasured int64
	closeRegion := func(end int64) {
		forest.Insts = regionMeasured
		regions = append(regions, Region{Start: regionStart, End: end, Forest: forest})
		regionStart = end
		regionMeasured = 0
		// Consecutive regions of a program touch similar static instruction
		// sets, so the closed region's counts are good capacity hints.
		forest = NewForestSized(len(forest.Trees), len(forest.DCtrig))
	}
	// Snapshot per-PC counts for a region in one pass: the tracker counts
	// globally, so diff against (and refresh) the reused previous-snapshot
	// scratch.
	prevDCtrig := make(map[int]int64, 256)
	snapshotDCtrig := func(f *Forest) {
		for pc, n := range tr.DCtrig {
			if d := n - prevDCtrig[pc]; d > 0 {
				f.DCtrig[pc] = d
			}
			prevDCtrig[pc] = n
		}
	}

	n := st.Count
	var measured int64
	for measured < opts.MaxInsts && !st.Halted {
		if done != nil && st.Count&ctxCheckMask == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		phase := sampling.On
		if opts.Sampling != nil {
			phase, _ = opts.Sampling.PhaseAt(st.Count)
		}
		e, err := st.Step()
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", p.Name, err)
		}
		switch phase {
		case sampling.Off:
			// Fast-forward: architectural state only.
		case sampling.Warm:
			if e.Inst.IsMem() {
				opts.Hierarchy.Access(e.EffAddr, e.Inst.Op == isa.ST)
			}
		case sampling.On:
			measured++
			regionMeasured++
			ent := tr.Observe(e)
			if e.Inst.IsMem() {
				res := opts.Hierarchy.Access(e.EffAddr, e.Inst.Op == isa.ST)
				if e.Inst.Op == isa.LD {
					forest.Loads++
					if res == cache.MissL2 {
						forest.L2Misses++
						forest.TreeFor(e.PC, e.Inst).Insert(backward(tr, ent))
					}
				}
			}
		}
		n = st.Count
		if opts.RegionInsts > 0 && n-regionStart >= opts.RegionInsts {
			snapshotDCtrig(forest)
			closeRegion(n)
		}
	}
	if n > regionStart || len(regions) == 0 {
		snapshotDCtrig(forest)
		closeRegion(n)
	}
	return regions, nil
}

// ProfileWhole is Profile with a single region, returning its forest.
func ProfileWhole(p *program.Program, opts ProfileOptions) (*Forest, error) {
	opts.RegionInsts = 0
	regs, err := Profile(p, opts)
	if err != nil {
		return nil, err
	}
	return regs[0].Forest, nil
}
