package slice_test

// This file is the frozen reference profiler, kept only as a test oracle:
// the profiling loop as it was when the profiler ran its own functional
// execution — a cpu.State stepped through the cache hierarchy, its dynamic
// dataflow rebuilt by a Tracker, and every L2 miss sliced by the backward
// slicer as it was before the allocation-free rewrite (per-miss inSlice and
// position maps, a closure, and a full sort.Slice of the pending list on
// every pop). TestBackwardMatchesReference and FuzzBackward assert that the
// profiler, which reads front-end records, produces exactly what this copy
// produces.
//
// Nothing here is reachable from non-test code. When the profiling *model*
// changes intentionally, update this copy in the same commit and say so —
// the invariant the equivalence tests defend is "optimizations must not
// change profiles", not "the profiler may never evolve".

import (
	"context"
	"fmt"
	"sort"

	"preexec/internal/cache"
	"preexec/internal/cpu"
	"preexec/internal/isa"
	"preexec/internal/program"
	"preexec/internal/slice"
)

// noProducer marks a source with no in-scope dynamic producer (a live-in).
const noProducer int64 = -1

// entry is one dynamic instruction with resolved dataflow edges.
type entry struct {
	Seq     int64
	PC      int
	Inst    isa.Inst
	EffAddr int64
	// SrcProd[i] is the Seq of the dynamic producer of source operand i
	// (as enumerated by Inst.Sources), or noProducer.
	SrcProd [2]int64
	// MemProd is, for loads, the Seq of the store that produced the loaded
	// word, or noProducer.
	MemProd int64
}

// tracker converts cpu.Exec records into entries and retains the most
// recent scope of them: the slicing scope is a sliding window over the
// observed instructions.
type tracker struct {
	scope    int
	ring     []entry
	n        int64 // total entries observed
	firstSeq int64 // Seq of the first observed entry
	lastSeq  int64 // Seq of the most recent entry (absolute numbering)
	regProd  [isa.NumRegs]int64
	memProd  map[int64]int64 // word-aligned address -> store Seq

	// DCtrig is the dynamic execution count of every static instruction.
	DCtrig map[int]int64
}

func newTracker(scope int) *tracker {
	t := &tracker{
		scope:   scope,
		ring:    make([]entry, scope),
		lastSeq: -1,
		memProd: make(map[int64]int64),
		DCtrig:  make(map[int]int64),
	}
	for i := range t.regProd {
		t.regProd[i] = noProducer
	}
	return t
}

// Observe records one executed instruction and returns its entry. The
// returned pointer is valid until the window wraps past it.
func (t *tracker) Observe(e cpu.Exec) *entry {
	ent := entry{
		Seq:     e.Seq,
		PC:      e.PC,
		Inst:    e.Inst,
		EffAddr: e.EffAddr,
		SrcProd: [2]int64{noProducer, noProducer},
		MemProd: noProducer,
	}
	srcs, ns := e.Inst.Sources()
	for i := 0; i < ns; i++ {
		if srcs[i] != isa.Zero {
			ent.SrcProd[i] = t.regProd[srcs[i]]
		}
	}
	if e.Inst.Op == isa.LD {
		if seq, ok := t.memProd[e.EffAddr&^7]; ok {
			ent.MemProd = seq
		}
	}
	// Publish results after sourcing (an instruction never depends on itself).
	if e.Inst.HasDest() {
		t.regProd[e.Inst.Rd] = e.Seq
	}
	if e.Inst.Op == isa.ST {
		t.memProd[e.EffAddr&^7] = e.Seq
	}
	t.DCtrig[e.PC]++
	slot := &t.ring[e.Seq%int64(t.scope)]
	*slot = ent
	if t.n == 0 {
		t.firstSeq = e.Seq
	}
	t.n++
	t.lastSeq = e.Seq
	return slot
}

// Get returns the entry with the given Seq if it is still inside the window.
// Seq numbering is absolute (the CPU's dynamic instruction index), so the
// tracker works even when observation starts mid-run (after a warm-up).
func (t *tracker) Get(seq int64) (*entry, bool) {
	if t.n == 0 || seq < t.firstSeq || seq > t.lastSeq || t.lastSeq-seq >= int64(t.scope) {
		return nil, false
	}
	ent := &t.ring[seq%int64(t.scope)]
	if ent.Seq != seq {
		return nil, false
	}
	return ent, true
}

// refBackward is the reference Slicer{MaxLen: maxLen}.Backward of the
// tracker's newest entry, miss.
func refBackward(maxLen int, tr *tracker, miss *entry) []slice.Inst {
	if maxLen <= 0 {
		maxLen = 32
	}
	inSlice := map[int64]*entry{miss.Seq: miss}
	heap := []int64{miss.Seq}
	pop := func() int64 {
		sort.Slice(heap, func(i, j int) bool { return heap[i] > heap[j] })
		v := heap[0]
		heap = heap[1:]
		return v
	}
	var ordered []*entry
	for len(heap) > 0 && len(ordered) < maxLen {
		seq := pop()
		ent := inSlice[seq]
		ordered = append(ordered, ent)
		expand := func(prodSeq int64) {
			if prodSeq == noProducer {
				return
			}
			if _, seen := inSlice[prodSeq]; seen {
				return
			}
			prod, ok := tr.Get(prodSeq)
			if !ok {
				return // outside the slicing scope: live-in
			}
			inSlice[prodSeq] = prod
			heap = append(heap, prodSeq)
		}
		expand(ent.SrcProd[0])
		expand(ent.SrcProd[1])
		expand(ent.MemProd)
	}
	pos := make(map[int64]int, len(ordered))
	for i, ent := range ordered {
		pos[ent.Seq] = i
	}
	out := make([]slice.Inst, len(ordered))
	for i, ent := range ordered {
		si := slice.Inst{
			PC:        ent.PC,
			Op:        ent.Inst,
			Dist:      miss.Seq - ent.Seq,
			DepPos:    [2]int{slice.NoDep, slice.NoDep},
			MemDepPos: slice.NoDep,
		}
		for k := 0; k < 2; k++ {
			if p, ok := pos[ent.SrcProd[k]]; ok && ent.SrcProd[k] != noProducer {
				si.DepPos[k] = p
			}
		}
		if p, ok := pos[ent.MemProd]; ok && ent.MemProd != noProducer {
			si.MemDepPos = p
		}
		out[i] = si
	}
	return out
}

// refProfile is the reference slice.ProfileContext: it executes p on its
// own cpu.State — warm-up through the caches, then the measured window
// observed by a tracker at the option's scope — and slices every L2 load
// miss with refBackward.
func refProfile(ctx context.Context, p *program.Program, opts slice.ProfileOptions) ([]slice.Region, error) {
	if opts.Scope <= 0 {
		opts.Scope = 1024
	}
	if opts.MaxSlice <= 0 {
		opts.MaxSlice = 32
	}
	if opts.MaxInsts <= 0 {
		opts.MaxInsts = 1 << 62
	}
	st := cpu.New(p)
	tr := newTracker(opts.Scope)
	h := cache.DefaultHierarchy()

	// Warm-up: train the caches without recording anything.
	for w := int64(0); w < opts.WarmInsts && !st.Halted; w++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e, err := st.Step()
		if err != nil {
			return nil, fmt.Errorf("profile %s (warm-up): %w", p.Name, err)
		}
		if e.Inst.IsMem() {
			h.Access(e.EffAddr, e.Inst.Op == isa.ST)
		}
	}

	var regions []slice.Region
	forest := slice.NewForest()
	// Region boundaries are absolute dynamic instruction indices, so after
	// warm-up the measured window starts at st.Count.
	regionStart := st.Count
	var regionMeasured, loads, misses int64
	prevDCtrig := make(map[int]int64)
	closeRegion := func(end int64) {
		for pc, n := range tr.DCtrig {
			if d := n - prevDCtrig[pc]; d > 0 {
				forest.DCtrig[pc] = d
			}
			prevDCtrig[pc] = n
		}
		forest.Insts, forest.Loads, forest.L2Misses = regionMeasured, loads, misses
		regions = append(regions, slice.Region{Start: regionStart, End: end, Forest: forest})
		forest = slice.NewForest()
		regionStart = end
		regionMeasured, loads, misses = 0, 0, 0
	}

	n := st.Count
	var measured int64
	for measured < opts.MaxInsts && !st.Halted {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e, err := st.Step()
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", p.Name, err)
		}
		measured++
		regionMeasured++
		ent := tr.Observe(e)
		if e.Inst.IsMem() {
			res := h.Access(e.EffAddr, e.Inst.Op == isa.ST)
			if e.Inst.Op == isa.LD {
				loads++
				if res == cache.MissL2 {
					misses++
					forest.TreeFor(e.PC, e.Inst).Insert(refBackward(opts.MaxSlice, tr, ent))
				}
			}
		}
		n = st.Count
		if opts.RegionInsts > 0 && n-regionStart >= opts.RegionInsts {
			closeRegion(n)
		}
	}
	if n > regionStart || len(regions) == 0 {
		closeRegion(n)
	}
	return regions, nil
}
