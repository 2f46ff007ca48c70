package slice

import (
	"context"
	"fmt"
	"maps"
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
	regs, err := ProfileShapes(ctx, p, []ProfileOptions{opts})
	if err != nil {
		return nil, err
	}
	return regs[0], nil
}

// ProfileShapes profiles p once for several slice shapes — options that
// differ only in Scope and MaxSlice, the axes of the paper's Figure 4 — and
// returns, per entry of opts, exactly the regions ProfileContext returns for
// it alone. It fails if the options differ in any other field.
//
// One pass serves every shape because Backward visits the in-scope producer
// closure in strictly decreasing Seq order and a producer is always older
// than its consumer: the slice of a shape (S, L) is the prefix of a wider
// shape's slice holding the entries with Dist < S, at most L of them, with
// dependences that point past the cut turned into NoDep (see cut). Tracker
// dataflow and trigger counts do not depend on the scope, so the pass tracks
// at the widest scope, slices each miss once at the widest length, and cuts
// that slice per shape.
func ProfileShapes(ctx context.Context, p *program.Program, opts []ProfileOptions) ([][]Region, error) {
	if len(opts) == 0 {
		return nil, fmt.Errorf("profile %s: no slice shapes", p.Name)
	}
	// Every shape shares the first one's filled options (one cache
	// hierarchy serves the pass) with its own scope and length.
	filled := opts[0]
	filled.fill()
	shapes := make([]ProfileOptions, len(opts))
	wide := &Slicer{}
	for i, o := range opts {
		if unshaped(o) != unshaped(opts[0]) {
			return nil, fmt.Errorf("profile %s: shape %d differs from shape 0 in more than scope and length", p.Name, i)
		}
		shape := filled
		shape.Scope, shape.MaxSlice = o.Scope, o.MaxSlice
		shape.fill()
		shapes[i] = shape
		wide.MaxLen = max(wide.MaxLen, shape.MaxSlice)
	}
	return profile(ctx, p, shapes, wide.Backward)
}

// unshaped returns o without its slice shape.
func unshaped(o ProfileOptions) ProfileOptions {
	o.Scope, o.MaxSlice = 0, 0
	return o
}

// profile is ProfileShapes with the backward slicer supplied by the caller
// (tests pin the slicer against a frozen reference through it). shapes must
// be filled and differ only in Scope and MaxSlice, and backward must slice
// at the widest MaxSlice; the tracker runs at the widest Scope.
func profile(ctx context.Context, p *program.Program, shapes []ProfileOptions, backward func(*trace.Tracker, *trace.Entry) []Inst) ([][]Region, error) {
	done := ctx.Done()
	opts := shapes[0]
	if opts.Sampling != nil {
		if err := opts.Sampling.Validate(); err != nil {
			return nil, err
		}
	}
	scope := opts.Scope
	for _, s := range shapes[1:] {
		scope = max(scope, s.Scope)
	}
	st := cpu.New(p)
	tr := trackerPool.Get().(*trace.Tracker)
	tr.Reset(scope)
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

	regions := make([][]Region, len(shapes))
	forests := make([]*Forest, len(shapes))
	for i := range forests {
		forests[i] = NewForest()
	}
	var cutBuf []Inst // scratch of the per-shape cuts, reused across misses
	// Region boundaries are absolute dynamic instruction indices (the
	// timing simulator gates launches on absolute trigger positions), so
	// after warm-up the measured window starts at st.Count.
	regionStart := st.Count
	var regionMeasured, loads, misses int64
	// Snapshot per-PC counts for a region in one pass: the tracker counts
	// globally, so diff against (and refresh) the reused previous-snapshot
	// scratch. Every shape's forest gets its own copy.
	prevDCtrig := make(map[int]int64, 256)
	closeRegion := func(end int64) {
		trig := forests[0].DCtrig
		for pc, n := range tr.DCtrig {
			if d := n - prevDCtrig[pc]; d > 0 {
				trig[pc] = d
			}
			prevDCtrig[pc] = n
		}
		for i, f := range forests {
			if i > 0 {
				maps.Copy(f.DCtrig, trig)
			}
			f.Insts, f.Loads, f.L2Misses = regionMeasured, loads, misses
			regions[i] = append(regions[i], Region{Start: regionStart, End: end, Forest: f})
			// Consecutive regions of a program touch similar static
			// instruction sets, so the closed region's counts are good
			// capacity hints.
			forests[i] = NewForestSized(len(f.Trees), len(f.DCtrig))
		}
		regionStart = end
		regionMeasured, loads, misses = 0, 0, 0
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
					loads++
					if res == cache.MissL2 {
						misses++
						sl := backward(tr, ent)
						for i, f := range forests {
							shape := sl
							if len(shapes) > 1 {
								shape = cut(&cutBuf, sl, shapes[i].Scope, shapes[i].MaxSlice)
							}
							f.TreeFor(e.PC, e.Inst).Insert(shape)
						}
					}
				}
			}
		}
		n = st.Count
		if opts.RegionInsts > 0 && n-regionStart >= opts.RegionInsts {
			closeRegion(n)
		}
	}
	if n > regionStart || len(regions[0]) == 0 {
		closeRegion(n)
	}
	return regions, nil
}

// cut returns the slice a shape of the given scope and maximum length takes
// of the miss whose slice at a shape at least as wide is sl: the prefix of
// entries with Dist < scope, at most maxLen of them, with every dependence
// on an entry past the cut turned into NoDep. When nothing is cut it returns
// sl itself; otherwise the result is built in *buf, valid until the next
// cut into it (Tree.Insert copies what it keeps).
func cut(buf *[]Inst, sl []Inst, scope, maxLen int) []Inst {
	n := 0
	for n < len(sl) && n < maxLen && sl[n].Dist < int64(scope) {
		n++
	}
	if n == len(sl) {
		return sl
	}
	out := append((*buf)[:0], sl[:n]...)
	for i := range out {
		in := &out[i]
		for k, pos := range in.DepPos {
			if pos >= n {
				in.DepPos[k] = NoDep
			}
		}
		if in.MemDepPos >= n {
			in.MemDepPos = NoDep
		}
	}
	*buf = out
	return out
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
