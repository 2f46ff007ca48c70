// Package slice implements dynamic backward slicing of cache-miss loads and
// the slice tree, the paper's data structure for compactly representing the
// space of all candidate static p-threads for a static problem load (§3.2).
package slice

import (
	"preexec/internal/frontend"
	"preexec/internal/isa"
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

// Window is the backward slicer's view of a front-end record stream. The
// record of sequence number seq is Recs[seq&Mask]: Mask is -1 (all ones)
// over a whole recording, indexed by sequence number, and len(Recs)-1 over
// a ring of a power-of-two length at least Scope, which holds the Scope
// records up to the miss being sliced. Text is the program's instructions,
// indexed by Rec.PC. Records carry their store links; their register
// producers come from the window's own rename table, which Rename runs
// over every record in program order into a producer ring as long as the
// record ring, or the power of two at least Scope over a whole recording.
//
// The window implements the paper's slicing scope — the length of dynamic
// trace the p-thread constructor may examine (§4.4, Figure 4): a producer
// is in scope when it is fewer than Scope records before the miss and at or
// after First, the first measured instruction. Producers outside it, warm-up
// producers included, are live-ins.
type Window struct {
	Recs  []frontend.Rec
	Mask  int64
	First int64
	Scope int64
	Text  []isa.Inst

	prods    [][2]int64 // record seq's register producers at seq&prodMask
	prodMask int64
	ren      frontend.Renamer
}

// Rename enters record seq, whose decode-table entry is d, into the
// window's rename table and keeps its register producers for slicing.
// Every record of the stream must be renamed, once and in sequence order,
// before a slice reaches it. The first call sizes the producer ring, so
// Recs, Mask and Scope must be set by then.
func (w *Window) Rename(seq int64, d *frontend.Dec) {
	if w.prods == nil {
		n := int64(len(w.Recs))
		if w.Mask < 0 {
			n = 1
			for n < w.Scope {
				n <<= 1
			}
		}
		w.prods, w.prodMask = make([][2]int64, n), n-1
	}
	w.prods[seq&w.prodMask] = w.ren.Link(seq, d)
}

// producers returns the sequence numbers of record seq's register producers,
// per source operand, and, for a load, of the store that produced its word;
// -1 for none.
func (w *Window) producers(seq int64) [3]int64 {
	r := &w.Recs[seq&w.Mask]
	// A load's store link is a frontend.LinkTo distance, decoded here
	// inline: the method stays within the inlining budget, and most
	// records have no link to test.
	mem := int64(-1)
	if r.PrevStore != 0 && w.Text[r.PC].Op == isa.LD {
		mem = seq - int64(r.PrevStore)
	}
	p := &w.prods[seq&w.prodMask]
	return [3]int64{p[0], p[1], mem}
}

// Slicer extracts backward slices from a record Window. A Slicer carries
// scratch reused across Backward calls, so one Slicer serves one profiling
// run (it is not safe for concurrent use); once warm it allocates nothing.
type Slicer struct {
	// MaxLen bounds the number of instructions in a slice (the paper's
	// maximum p-thread length; default configuration uses 32).
	MaxLen int

	pending []int64 // max-heap of producer Seqs still to expand
	seqs    []int64 // the slice's sequence numbers, decreasing
	pos     []int32 // 1 + slice position by distance from the miss, 0 none
	out     []Inst  // the returned slice's backing array
}

// Backward builds the dynamic backward data-dependence slice of the miss
// with sequence number miss. The slice includes the load itself at position
// 0 and follows register producers and (for loads) store producers, bounded
// by the window's slicing scope and by MaxLen instructions.
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
func (s *Slicer) Backward(w *Window, miss int64) []Inst {
	maxLen := s.MaxLen
	if maxLen <= 0 {
		maxLen = 32
	}
	// A producer's Seq is always smaller than its consumer's, so popping the
	// largest pending Seq visits the in-scope closure in strictly decreasing
	// Seq order. A producer reached twice (add r3,r1,r1, or two consumers
	// sharing it) therefore pops right after its twin and is skipped there:
	// no seen-set is needed.
	s.pending = append(s.pending[:0], miss)
	seqs := s.seqs[:0]
	for len(s.pending) > 0 && len(seqs) < maxLen {
		seq := s.popMax()
		if len(seqs) > 0 && seqs[len(seqs)-1] == seq {
			continue
		}
		seqs = append(seqs, seq)
		// A producer outside the slicing scope is a live-in: never pushed.
		for _, prod := range w.producers(seq) {
			if prod >= w.First && miss-prod < w.Scope {
				s.push(prod)
			}
		}
	}
	s.seqs = seqs

	// Index the slice by distance from the miss, which is below the scope
	// for every entry, so each producer's position is one lookup.
	if int64(len(s.pos)) < w.Scope {
		s.pos = make([]int32, w.Scope)
	}
	for i, seq := range seqs {
		s.pos[miss-seq] = int32(i + 1)
	}
	out := s.out[:0]
	for _, seq := range seqs {
		pc := w.Recs[seq&w.Mask].PC
		p := w.producers(seq)
		out = append(out, Inst{
			PC:        int(pc),
			Op:        w.Text[pc],
			Dist:      miss - seq,
			DepPos:    [2]int{s.posOf(miss, p[0]), s.posOf(miss, p[1])},
			MemDepPos: s.posOf(miss, p[2]),
		})
	}
	for _, seq := range seqs {
		s.pos[miss-seq] = 0
	}
	s.out = out
	return out
}

// posOf returns the slice position of the producer with sequence number
// prod (-1 for none) in the slice of miss, or NoDep if the slice does not
// contain it.
func (s *Slicer) posOf(miss, prod int64) int {
	if d := miss - prod; prod >= 0 && d < int64(len(s.pos)) {
		return int(s.pos[d]) - 1
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
