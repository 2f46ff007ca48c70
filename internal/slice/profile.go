package slice

import (
	"context"
	"fmt"
	"maps"

	"preexec/internal/cache"
	"preexec/internal/frontend"
	"preexec/internal/isa"
	"preexec/internal/program"
)

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
}

func (o *ProfileOptions) fill() {
	if o.Scope <= 0 {
		o.Scope = 1024
	}
	if o.MaxSlice <= 0 {
		o.MaxSlice = 32
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
// ctx.Err(). It streams the program's records from a fresh front end; a
// caller holding a recorded trace of the run profiles it with ProfileShapes
// instead, for the same regions.
func ProfileContext(ctx context.Context, p *program.Program, opts ProfileOptions) ([]Region, error) {
	regs, err := profileShapes(ctx, p, nil, []ProfileOptions{opts})
	if err != nil {
		return nil, err
	}
	return regs[0], nil
}

// ProfileShapes profiles the records of trace t once for several slice
// shapes — options that differ only in Scope and MaxSlice, the axes of the
// paper's Figure 4 — and returns, per entry of opts, exactly the regions
// ProfileContext returns for t's program and that entry alone. It fails if
// the options differ in any other field. It reads the records
// [0, WarmInsts+MaxInsts), so t must cover them or end at HALT or at an
// oracle error; a streamed trace is served from a fresh front end.
//
// One pass serves every shape because Backward visits the in-scope producer
// closure in strictly decreasing Seq order and a producer is always older
// than its consumer: the slice of a shape (S, L) is the prefix of a wider
// shape's slice holding the entries with Dist < S, at most L of them, with
// dependences that point past the cut turned into NoDep (see cut). Trigger
// counts do not depend on the scope, so the pass slices each miss once at
// the widest scope and length, and cuts that slice per shape.
func ProfileShapes(ctx context.Context, t *frontend.Trace, opts []ProfileOptions) ([][]Region, error) {
	return profileShapes(ctx, t.Program(), t, opts)
}

// profileShapes is ProfileShapes over p's records: t's, or streamed from a
// fresh front end when t is nil or streamed.
func profileShapes(ctx context.Context, p *program.Program, t *frontend.Trace, opts []ProfileOptions) ([][]Region, error) {
	if len(opts) == 0 {
		return nil, fmt.Errorf("profile %s: no slice shapes", p.Name)
	}
	// Every shape shares the first one's filled options with its own scope
	// and length.
	filled := opts[0]
	filled.fill()
	shapes := make([]ProfileOptions, len(opts))
	for i, o := range opts {
		if unshaped(o) != unshaped(opts[0]) {
			return nil, fmt.Errorf("profile %s: shape %d differs from shape 0 in more than scope and length", p.Name, i)
		}
		shape := filled
		shape.Scope, shape.MaxSlice = o.Scope, o.MaxSlice
		shape.fill()
		shapes[i] = shape
	}
	return profile(ctx, p, t, shapes)
}

// unshaped returns o without its slice shape.
func unshaped(o ProfileOptions) ProfileOptions {
	o.Scope, o.MaxSlice = 0, 0
	return o
}

// records is the profiler's record source: a recorded trace read in place,
// or a ring fed by a fresh front end.
type records struct {
	w  *Window
	fe *frontend.FrontEnd // nil: w.Recs is the recording
	t  *frontend.Trace
}

// next returns the record of sequence number seq, the one after the last
// returned: it steps the front end into the ring, or reads the recording,
// where a recording that ends before seq ends the stream with its oracle
// error, or with an error of its own if it was too short.
func (r *records) next(seq int64) (*frontend.Rec, error) {
	if r.fe != nil {
		rec := &r.w.Recs[seq&r.w.Mask]
		if err := r.fe.Step(rec); err != nil {
			return nil, err
		}
		return rec, nil
	}
	if seq >= int64(len(r.w.Recs)) {
		if err := r.t.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace of %d records too short", len(r.w.Recs))
	}
	return &r.w.Recs[seq], nil
}

// profile is profileShapes over filled shapes that differ only in Scope and
// MaxSlice. It slices each miss at the widest of both.
func profile(ctx context.Context, p *program.Program, t *frontend.Trace, shapes []ProfileOptions) ([][]Region, error) {
	done := ctx.Done()
	opts := shapes[0]
	w := &Window{First: opts.WarmInsts, Text: p.Insts}
	wide := &Slicer{}
	for _, s := range shapes {
		w.Scope = max(w.Scope, int64(s.Scope))
		wide.MaxLen = max(wide.MaxLen, s.MaxSlice)
	}
	src := records{w: w, t: t}
	var dec []frontend.Dec // the decode table, indexed by a record's PC
	if t == nil || t.Streamed() {
		// The ring holds every record a slice can reach: the widest
		// scope's worth up to the miss.
		n := int64(1)
		for n < w.Scope {
			n <<= 1
		}
		src.fe = frontend.New(p)
		dec = frontend.Decode(p)
		w.Recs, w.Mask = make([]frontend.Rec, n), n-1
	} else {
		dec = t.Decode()
		w.Recs, w.Mask = t.Recs(), -1
	}
	h := cache.DefaultHierarchy()

	// Warm-up: train the caches without recording anything. Its records
	// go through the rename table too, so every producer the window holds
	// is the true most recent writer; one in warm-up is a live-in.
	var n int64 // instructions executed, the next record's sequence number
	halted := false
	for n < opts.WarmInsts && !halted {
		if done != nil && n&ctxCheckMask == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		rec, err := src.next(n)
		if err != nil {
			return nil, fmt.Errorf("profile %s (warm-up): %w", p.Name, err)
		}
		d := &dec[rec.PC]
		w.Rename(n, d)
		n++
		if c := isa.Class(d.Class); c == isa.ClassLoad || c == isa.ClassStore {
			h.Access(rec.Word, c == isa.ClassStore)
		}
		halted = isa.Class(d.Class) == isa.ClassHalt
	}

	regions := make([][]Region, len(shapes))
	forests := make([]*Forest, len(shapes))
	for i := range forests {
		forests[i] = NewForest()
	}
	var cutBuf []Inst // scratch of the per-shape cuts, reused across misses
	// Region boundaries are absolute dynamic instruction indices (the
	// timing simulator gates launches on absolute trigger positions), so
	// after warm-up the measured window starts at n.
	regionStart := n
	var regionMeasured, loads, misses int64
	// trig counts each static instruction's executions in the open region;
	// every shape's forest gets its own copy.
	trig := make([]int64, len(p.Insts))
	closeRegion := func(end int64) {
		dc := forests[0].DCtrig
		for pc, c := range trig {
			if c > 0 {
				dc[pc] = c
				trig[pc] = 0
			}
		}
		for i, f := range forests {
			if i > 0 {
				maps.Copy(f.DCtrig, dc)
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

	for measured := int64(0); measured < opts.MaxInsts && !halted; measured++ {
		if done != nil && n&ctxCheckMask == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		rec, err := src.next(n)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", p.Name, err)
		}
		seq := n
		n++
		regionMeasured++
		trig[rec.PC]++
		d := &dec[rec.PC]
		w.Rename(seq, d)
		switch isa.Class(d.Class) {
		case isa.ClassStore:
			h.Access(rec.Word, true)
		case isa.ClassLoad:
			loads++
			if h.Access(rec.Word, false) == cache.MissL2 {
				misses++
				sl := wide.Backward(w, seq)
				for i, f := range forests {
					shape := sl
					if len(shapes) > 1 {
						shape = cut(&cutBuf, sl, shapes[i].Scope, shapes[i].MaxSlice)
					}
					f.TreeFor(int(rec.PC), p.Insts[rec.PC]).Insert(shape)
				}
			}
		}
		halted = isa.Class(d.Class) == isa.ClassHalt
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
