package slice

import (
	"context"
	"fmt"
	"maps"
	"math"

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
// ctx.Err(). It records the run's records, then profiles the recording; a
// caller holding a recorded trace of the run profiles it with
// ProfileShapes instead, for the same regions.
func ProfileContext(ctx context.Context, p *program.Program, opts ProfileOptions) ([]Region, error) {
	span := opts.WarmInsts + opts.MaxInsts
	if opts.MaxInsts <= 0 || span < 0 {
		span = math.MaxInt64 // to HALT
	}
	t, err := frontend.Record(ctx, p, span, "")
	if err != nil {
		return nil, err
	}
	regs, err := ProfileShapes(ctx, t, []ProfileOptions{opts})
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
// oracle error.
//
// One pass serves every shape because Backward visits the in-scope producer
// closure in strictly decreasing Seq order and a producer is always older
// than its consumer: the slice of a shape (S, L) is the prefix of a wider
// shape's slice holding the entries with Dist < S, at most L of them, with
// dependences that point past the cut turned into NoDep (see cut). Trigger
// counts do not depend on the scope, so the pass slices each miss once at
// the widest scope and length, and cuts that slice per shape.
func ProfileShapes(ctx context.Context, t *frontend.Trace, opts []ProfileOptions) ([][]Region, error) {
	p := t.Program()
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
	return profile(ctx, t, shapes)
}

// unshaped returns o without its slice shape.
func unshaped(o ProfileOptions) ProfileOptions {
	o.Scope, o.MaxSlice = 0, 0
	return o
}

// profile is ProfileShapes over filled shapes that differ only in Scope
// and MaxSlice. It slices each miss at the widest of both.
func profile(ctx context.Context, t *frontend.Trace, shapes []ProfileOptions) ([][]Region, error) {
	done := ctx.Done()
	opts := shapes[0]
	p := t.Program()
	w := &Window{First: opts.WarmInsts, Text: p.Insts}
	wide := &Slicer{}
	for _, s := range shapes {
		w.Scope = max(w.Scope, int64(s.Scope))
		wide.MaxLen = max(wide.MaxLen, s.MaxSlice)
	}
	// The ring holds every record a slice can reach: the widest scope's
	// worth up to the miss.
	size := int64(1)
	for size < w.Scope {
		size <<= 1
	}
	w.Recs, w.Mask = make([]frontend.Rec, size), size-1
	rd := t.Reader()
	dec := t.Decode() // indexed by a record's PC
	h := cache.DefaultHierarchy()

	regions := make([][]Region, len(shapes))
	forests := make([]*Forest, len(shapes))
	for i := range forests {
		forests[i] = NewForest()
	}
	var cutBuf []Inst // scratch of the per-shape cuts, reused across misses
	// Region boundaries are absolute dynamic instruction indices (the
	// timing simulator gates launches on absolute trigger positions), so
	// the measured window starts after the warm-up.
	regionStart := opts.WarmInsts
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

	var n int64 // records read, the next record's sequence number
	for halted := false; !halted && n-opts.WarmInsts < opts.MaxInsts; {
		if done != nil && n&ctxCheckMask == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		// A recording that ends early ends the stream with its oracle
		// error, or with an error of its own if it was too short.
		rec := &w.Recs[n&w.Mask]
		if !rd.Next(rec) {
			err := t.Err()
			if err == nil {
				err = fmt.Errorf("trace of %d records too short", t.Records())
			}
			return nil, fmt.Errorf("profile %s: %w", p.Name, err)
		}
		seq := n
		n++
		// Every record goes through the rename table, warm-up included, so
		// every producer the window holds is the true most recent writer;
		// one in warm-up is a live-in.
		d := &dec[rec.PC]
		w.Rename(seq, d)
		c := isa.Class(d.Class)
		halted = c == isa.ClassHalt
		if seq < opts.WarmInsts {
			// Warm-up: train the caches without recording anything.
			if c == isa.ClassLoad || c == isa.ClassStore {
				h.Access(rec.Word, c == isa.ClassStore)
			}
			continue
		}
		regionMeasured++
		trig[rec.PC]++
		switch c {
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
		if opts.RegionInsts > 0 && n-regionStart >= opts.RegionInsts {
			closeRegion(n)
		}
	}
	// A run that halts in its warm-up has one empty region, at its end.
	regionStart = min(regionStart, n)
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
