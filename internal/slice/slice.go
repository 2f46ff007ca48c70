// Package slice implements dynamic backward slicing of cache-miss loads and
// the slice tree, the paper's data structure for compactly representing the
// space of all candidate static p-threads for a static problem load (§3.2).
package slice

import (
	"preexec/internal/isa"
	"preexec/internal/trace"
)

// NoDep marks a source operand with no producer inside the slice (a live-in
// seeded from the main thread at launch).
const NoDep = -1

// Inst is one instruction of a backward slice. Position 0 is the problem
// load itself; increasing positions move backward in dynamic execution
// order (deeper in the slice tree).
type Inst struct {
	PC int
	Op isa.Inst
	// Dist is the dynamic main-thread distance (in instructions) from this
	// instruction to the problem load: root.Seq - this.Seq. The SCDH model
	// derives main-thread sequencing constraints from it.
	Dist int64
	// DepPos[i] is the slice position of the producer of register source i,
	// or NoDep. For loads, a memory dependence on an in-slice store is
	// reported through MemDepPos.
	DepPos    [2]int
	MemDepPos int
}

// Slicer extracts backward slices from a Tracker's window. A Slicer carries
// scratch reused across Backward calls, so one Slicer serves one profiling
// run (it is not safe for concurrent use); once warm it allocates nothing.
type Slicer struct {
	// MaxLen bounds the number of instructions in a slice (the paper's
	// maximum p-thread length; default configuration uses 32).
	MaxLen int

	pending []int64        // max-heap of producer Seqs still to expand
	ents    []*trace.Entry // the slice's entries, in decreasing Seq
	out     []Inst         // the returned slice's backing array
}

// Backward builds the dynamic backward data-dependence slice of the given
// miss entry. The slice includes the load itself at position 0 and follows
// register producers and (for loads) store producers, bounded by the
// tracker's scope window and by MaxLen instructions.
//
// Producers are expanded in decreasing-Seq order: the latest pending
// instruction always comes next, so the MaxLen cutoff keeps the
// instructions nearest the miss — the ones that form the shortest candidate
// p-threads. The returned slice is therefore ordered by decreasing Seq
// (equivalently, increasing Dist).
//
// The returned slice aliases the Slicer's scratch and stays valid only until
// the next Backward call on the same Slicer; Tree.Insert copies what it keeps.
//
// Slices follow dataflow only — control instructions never appear because
// they produce no register values the computation consumes (JAL link values
// are followed like any dataflow, but workload miss computations do not use
// them). This realizes the paper's control-less p-thread model.
func (s *Slicer) Backward(tr *trace.Tracker, miss *trace.Entry) []Inst {
	maxLen := s.MaxLen
	if maxLen <= 0 {
		maxLen = 32
	}
	// A producer's Seq is always smaller than its consumer's, so popping the
	// largest pending Seq visits the in-scope closure in strictly decreasing
	// Seq order. A producer reached twice (add r3,r1,r1, or two consumers
	// sharing it) therefore pops right after its twin and is skipped there:
	// no seen-set is needed.
	s.pending = append(s.pending[:0], miss.Seq)
	ents := s.ents[:0]
	for len(s.pending) > 0 && len(ents) < maxLen {
		seq := s.popMax()
		if len(ents) > 0 && ents[len(ents)-1].Seq == seq {
			continue
		}
		ent := miss
		if seq != miss.Seq {
			ent, _ = tr.Get(seq) // in scope: checked when pushed
		}
		ents = append(ents, ent)
		// A producer outside the slicing scope is a live-in: never pushed.
		for _, prod := range [3]int64{ent.SrcProd[0], ent.SrcProd[1], ent.MemProd} {
			if prod != trace.NoProducer && tr.InScope(prod) {
				s.push(prod)
			}
		}
	}
	s.ents = ents

	out := s.out[:0]
	for _, ent := range ents {
		out = append(out, Inst{
			PC:        ent.PC,
			Op:        ent.Inst,
			Dist:      miss.Seq - ent.Seq,
			DepPos:    [2]int{posOf(ents, ent.SrcProd[0]), posOf(ents, ent.SrcProd[1])},
			MemDepPos: posOf(ents, ent.MemProd),
		})
	}
	s.out = out
	return out
}

// posOf returns the position of the entry with the given Seq in ents (sorted
// by decreasing Seq), or NoDep if the slice does not contain it.
func posOf(ents []*trace.Entry, seq int64) int {
	if seq == trace.NoProducer {
		return NoDep
	}
	lo, hi := 0, len(ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ents[mid].Seq > seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ents) && ents[lo].Seq == seq {
		return lo
	}
	return NoDep
}

// push adds seq to the pending max-heap.
func (s *Slicer) push(seq int64) {
	h := append(s.pending, seq)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent] >= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	s.pending = h
}

// popMax removes and returns the largest pending Seq.
func (s *Slicer) popMax() int64 {
	h := s.pending
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		big, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l] > h[big] {
			big = l
		}
		if r < len(h) && h[r] > h[big] {
			big = r
		}
		if big == i {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
	s.pending = h
	return top
}
