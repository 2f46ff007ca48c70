package slice_test

// This file is a frozen copy of the backward slicer as it was before the
// allocation-free rewrite of slice.go (per-miss inSlice and position maps, a
// closure, and a full sort.Slice of the pending list on every pop). It exists
// only as a test oracle: TestBackwardMatchesReference and FuzzBackward assert
// that Slicer.Backward produces exactly the slices this copy produces.
//
// Nothing here is reachable from non-test code. When the slicing *model*
// changes intentionally, update this copy in the same commit and say so —
// the invariant the equivalence tests defend is "optimizations must not
// change slices", not "the slicer may never evolve".

import (
	"sort"

	"preexec/internal/slice"
	"preexec/internal/trace"
)

// refBackward is the reference Slicer{MaxLen: maxLen}.Backward.
func refBackward(maxLen int, tr *trace.Tracker, miss *trace.Entry) []slice.Inst {
	if maxLen <= 0 {
		maxLen = 32
	}
	inSlice := map[int64]*trace.Entry{miss.Seq: miss}
	heap := []int64{miss.Seq}
	pop := func() int64 {
		sort.Slice(heap, func(i, j int) bool { return heap[i] > heap[j] })
		v := heap[0]
		heap = heap[1:]
		return v
	}
	var ordered []*trace.Entry
	for len(heap) > 0 && len(ordered) < maxLen {
		seq := pop()
		ent := inSlice[seq]
		ordered = append(ordered, ent)
		expand := func(prodSeq int64) {
			if prodSeq == trace.NoProducer {
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
			if p, ok := pos[ent.SrcProd[k]]; ok && ent.SrcProd[k] != trace.NoProducer {
				si.DepPos[k] = p
			}
		}
		if p, ok := pos[ent.MemProd]; ok && ent.MemProd != trace.NoProducer {
			si.MemDepPos = p
		}
		out[i] = si
	}
	return out
}
