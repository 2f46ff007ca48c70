package slice

import (
	"testing"

	"preexec/internal/cpu"
	"preexec/internal/frontend"
	"preexec/internal/isa"
)

// feed links a sequence of execs into a window of the given scope and
// returns it with the sequence number of the final instruction.
func feed(scope int, execs []cpu.Exec) (*Window, int64) {
	return LinkedWindow(scope, execs), execs[len(execs)-1].Seq
}

func TestBackwardLinearChain(t *testing.T) {
	// li r1 ; addi r2,r1 ; sll r3,r2 ; ld r4,(r3)  -- plus noise
	execs := []cpu.Exec{
		{Seq: 0, PC: 0, Inst: isa.Inst{Op: isa.LI, Rd: 1}},
		{Seq: 1, PC: 9, Inst: isa.Inst{Op: isa.NOP}},
		{Seq: 2, PC: 1, Inst: isa.Inst{Op: isa.ADDI, Rd: 2, Rs1: 1}},
		{Seq: 3, PC: 9, Inst: isa.Inst{Op: isa.NOP}},
		{Seq: 4, PC: 2, Inst: isa.Inst{Op: isa.SLLI, Rd: 3, Rs1: 2}},
		{Seq: 5, PC: 3, Inst: isa.Inst{Op: isa.LD, Rd: 4, Rs1: 3}, EffAddr: 0x100},
	}
	tr, miss := feed(64, execs)
	sl := (&Slicer{MaxLen: 32}).Backward(tr, miss)
	if len(sl) != 4 {
		t.Fatalf("slice length = %d, want 4 (noise excluded)", len(sl))
	}
	wantPCs := []int{3, 2, 1, 0}
	wantDists := []int64{0, 1, 3, 5}
	for i := range sl {
		if sl[i].PC != wantPCs[i] {
			t.Errorf("slice[%d].PC = %d, want %d", i, sl[i].PC, wantPCs[i])
		}
		if sl[i].Dist != wantDists[i] {
			t.Errorf("slice[%d].Dist = %d, want %d", i, sl[i].Dist, wantDists[i])
		}
	}
	// Dependence positions: each inst depends on the next slice position.
	for i := 0; i < 3; i++ {
		if sl[i].DepPos[0] != i+1 {
			t.Errorf("slice[%d].DepPos[0] = %d, want %d", i, sl[i].DepPos[0], i+1)
		}
	}
	if sl[3].DepPos[0] != NoDep {
		t.Errorf("root-most inst should be live-in, got %d", sl[3].DepPos[0])
	}
}

func TestBackwardTwoOperands(t *testing.T) {
	execs := []cpu.Exec{
		{Seq: 0, PC: 0, Inst: isa.Inst{Op: isa.LI, Rd: 1}},
		{Seq: 1, PC: 1, Inst: isa.Inst{Op: isa.LI, Rd: 2}},
		{Seq: 2, PC: 2, Inst: isa.Inst{Op: isa.ADD, Rd: 3, Rs1: 1, Rs2: 2}},
		{Seq: 3, PC: 3, Inst: isa.Inst{Op: isa.LD, Rd: 4, Rs1: 3}, EffAddr: 0x40},
	}
	tr, miss := feed(64, execs)
	sl := (&Slicer{MaxLen: 32}).Backward(tr, miss)
	if len(sl) != 4 {
		t.Fatalf("slice length = %d, want 4", len(sl))
	}
	// ADD at position 1 must reference both producers at positions 2 and 3.
	if sl[1].Op.Op != isa.ADD {
		t.Fatalf("slice[1] = %v, want the ADD", sl[1].Op)
	}
	got := map[int]bool{sl[1].DepPos[0]: true, sl[1].DepPos[1]: true}
	if !got[2] || !got[3] {
		t.Errorf("ADD DepPos = %v, want {2,3}", sl[1].DepPos)
	}
}

func TestBackwardMemoryDependence(t *testing.T) {
	// st r2 -> [r1] ; ld r3 <- [r1] ; ld r4 <- [r3]: the final load's slice
	// must include the first load AND, through the memory dependence, the
	// store and its data producer.
	execs := []cpu.Exec{
		{Seq: 0, PC: 0, Inst: isa.Inst{Op: isa.LI, Rd: 2}},                        // data
		{Seq: 1, PC: 1, Inst: isa.Inst{Op: isa.ST, Rs1: 1, Rs2: 2}, EffAddr: 0x8}, // store
		{Seq: 2, PC: 2, Inst: isa.Inst{Op: isa.LD, Rd: 3, Rs1: 1}, EffAddr: 0x8},  // load (fwd)
		{Seq: 3, PC: 3, Inst: isa.Inst{Op: isa.LD, Rd: 4, Rs1: 3}, EffAddr: 0x80}, // miss
	}
	tr, miss := feed(64, execs)
	sl := (&Slicer{MaxLen: 32}).Backward(tr, miss)
	if len(sl) != 4 {
		t.Fatalf("slice length = %d, want 4 (load, load, store, li)", len(sl))
	}
	if sl[1].Op.Op != isa.LD || sl[1].MemDepPos != 2 {
		t.Errorf("inner load MemDepPos = %d, want 2 (the store)", sl[1].MemDepPos)
	}
	if sl[2].Op.Op != isa.ST {
		t.Errorf("slice[2] = %v, want the store", sl[2].Op)
	}
}

func TestBackwardMaxLen(t *testing.T) {
	// A long dependence chain must be truncated to MaxLen nearest the miss.
	var execs []cpu.Exec
	execs = append(execs, cpu.Exec{Seq: 0, PC: 0, Inst: isa.Inst{Op: isa.LI, Rd: 1}})
	for i := int64(1); i <= 20; i++ {
		execs = append(execs, cpu.Exec{Seq: i, PC: int(i), Inst: isa.Inst{Op: isa.ADDI, Rd: 1, Rs1: 1, Imm: 1}})
	}
	execs = append(execs, cpu.Exec{Seq: 21, PC: 21, Inst: isa.Inst{Op: isa.LD, Rd: 2, Rs1: 1}, EffAddr: 0x40})
	tr, miss := feed(64, execs)
	sl := (&Slicer{MaxLen: 5}).Backward(tr, miss)
	if len(sl) != 5 {
		t.Fatalf("slice length = %d, want 5", len(sl))
	}
	if sl[0].PC != 21 || sl[4].PC != 17 {
		t.Errorf("truncation kept wrong end: first PC %d last PC %d", sl[0].PC, sl[4].PC)
	}
}

func TestBackwardScopeBound(t *testing.T) {
	// Producers outside the window become live-ins.
	execs := []cpu.Exec{
		{Seq: 0, PC: 0, Inst: isa.Inst{Op: isa.LI, Rd: 1}},
		{Seq: 1, PC: 1, Inst: isa.Inst{Op: isa.NOP}},
		{Seq: 2, PC: 2, Inst: isa.Inst{Op: isa.NOP}},
		{Seq: 3, PC: 3, Inst: isa.Inst{Op: isa.NOP}},
		{Seq: 4, PC: 4, Inst: isa.Inst{Op: isa.LD, Rd: 2, Rs1: 1}, EffAddr: 0x40},
	}
	tr, miss := feed(3, execs) // LI at seq 0 fell out of the 3-entry window
	sl := (&Slicer{MaxLen: 32}).Backward(tr, miss)
	if len(sl) != 1 {
		t.Fatalf("slice length = %d, want 1 (producer out of scope)", len(sl))
	}
	if sl[0].DepPos[0] != NoDep {
		t.Error("out-of-scope producer must be a live-in")
	}
}

func TestBackwardInductionUnrolling(t *testing.T) {
	// A loop-carried induction (addi r5,r5,16 each iteration) must appear
	// multiple times in the slice — the paper's induction unrolling idiom.
	var execs []cpu.Exec
	seq := int64(0)
	for iter := 0; iter < 3; iter++ {
		execs = append(execs,
			cpu.Exec{Seq: seq, PC: 11, Inst: isa.Inst{Op: isa.ADDI, Rd: 5, Rs1: 5, Imm: 16}},
			cpu.Exec{Seq: seq + 1, PC: 12, Inst: isa.Inst{Op: isa.NOP}},
		)
		seq += 2
	}
	execs = append(execs, cpu.Exec{Seq: seq, PC: 9, Inst: isa.Inst{Op: isa.LD, Rd: 8, Rs1: 5}, EffAddr: 0x40})
	tr, miss := feed(64, execs)
	sl := (&Slicer{MaxLen: 32}).Backward(tr, miss)
	if len(sl) != 4 {
		t.Fatalf("slice length = %d, want 4 (load + 3 inductions)", len(sl))
	}
	for i := 1; i <= 3; i++ {
		if sl[i].PC != 11 {
			t.Errorf("slice[%d].PC = %d, want 11 (induction instance)", i, sl[i].PC)
		}
	}
}

// TestWindowEviction pins the slicing window over a ring the length of the
// scope: a producer 3 records before the miss is sliced, the one 4 records
// before — already overwritten in the 4-record ring — is a live-in, and so
// is every producer before First, the first measured instruction.
func TestWindowEviction(t *testing.T) {
	execs := []cpu.Exec{
		{Seq: 0, PC: 0, Inst: isa.Inst{Op: isa.LI, Rd: 1}},
		{Seq: 1, PC: 1, Inst: isa.Inst{Op: isa.LI, Rd: 2}},
		{Seq: 2, PC: 2, Inst: isa.Inst{Op: isa.ADDI, Rd: 3, Rs1: 2}},
		{Seq: 3, PC: 3, Inst: isa.Inst{Op: isa.NOP}},
		{Seq: 4, PC: 4, Inst: isa.Inst{Op: isa.NOP}},
		{Seq: 5, PC: 5, Inst: isa.Inst{Op: isa.LD, Rd: 4, Rs1: 3}, EffAddr: 0x40},
	}
	w := &Window{Recs: make([]frontend.Rec, 4), Mask: 3, Scope: 4}
	linkInto(w, execs)
	sl := (&Slicer{MaxLen: 32}).Backward(w, 5)
	if len(sl) != 2 || sl[1].PC != 2 {
		t.Fatalf("slice = %+v, want the load and its in-scope producer", sl)
	}
	if sl[1].DepPos[0] != NoDep {
		t.Error("a producer past the ring's scope must be a live-in")
	}
	w.First = 3
	if sl := (&Slicer{MaxLen: 32}).Backward(w, 5); len(sl) != 1 || sl[0].DepPos[0] != NoDep {
		t.Errorf("slice = %+v, want the load alone: its producer precedes First", sl)
	}
}
