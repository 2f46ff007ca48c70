package pthread

import (
	"math/rand"
	"testing"

	"preexec/internal/cpu"
	"preexec/internal/isa"
	"preexec/internal/mem"
)

// finalLoadAddr executes a body and returns the final instruction's
// effective address — the prefetch address, the only architecturally
// meaningful output of a p-thread.
func finalLoadAddr(body []BodyInst, seeds map[isa.Reg]int64, m *mem.Memory) int64 {
	regs := make([]int64, isa.PtRegs)
	for r, v := range seeds {
		regs[r] = v
	}
	insts := make([]isa.Inst, len(body))
	for i, bi := range body {
		insts[i] = bi.Inst
	}
	res := cpu.ExecBody(insts, regs, m)
	return res.EffAddrs[len(res.EffAddrs)-1]
}

func TestConstantFoldInductionUnrolling(t *testing.T) {
	// The paper's Figure 2 optimization: two addi r5,r5,16 instances fold
	// into one addi r5,r5,32.
	body := []BodyInst{
		{Inst: isa.Inst{Op: isa.ADDI, Rd: 5, Rs1: 5, Imm: 16}, Dep: [2]int{DepTrigger, DepLiveIn}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.ADDI, Rd: 5, Rs1: 5, Imm: 16}, Dep: [2]int{0, DepLiveIn}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.LD, Rd: 7, Rs1: 5, Imm: 4}, Dep: [2]int{1, DepLiveIn}, MemDep: DepLiveIn},
	}
	opt := Optimize(body)
	if len(opt) != 2 {
		t.Fatalf("optimized size = %d, want 2:\n%v", len(opt), opt)
	}
	if opt[0].Inst.Op != isa.ADDI || opt[0].Inst.Imm != 32 {
		t.Errorf("folded inst = %v, want addi r5,r5,32", opt[0].Inst)
	}
	// Semantics: same prefetch address.
	seeds := map[isa.Reg]int64{5: 1000}
	if a, b := finalLoadAddr(body, seeds, mem.New()), finalLoadAddr(opt, seeds, mem.New()); a != b {
		t.Errorf("prefetch address changed: %d vs %d", a, b)
	}
}

func TestConstantFoldLIChain(t *testing.T) {
	body := []BodyInst{
		{Inst: isa.Inst{Op: isa.LI, Rd: 2, Imm: 100}, Dep: [2]int{DepLiveIn, DepLiveIn}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.ADDI, Rd: 3, Rs1: 2, Imm: 8}, Dep: [2]int{0, DepLiveIn}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.LD, Rd: 4, Rs1: 3}, Dep: [2]int{1, DepLiveIn}, MemDep: DepLiveIn},
	}
	opt := Optimize(body)
	if len(opt) != 2 {
		t.Fatalf("optimized size = %d, want 2:\n%v", len(opt), opt)
	}
	if opt[0].Inst.Op != isa.LI || opt[0].Inst.Imm != 108 {
		t.Errorf("folded = %v, want li r3,108", opt[0].Inst)
	}
}

func TestConstantFoldRefusedWhenMultipleUses(t *testing.T) {
	// The intermediate value feeds two consumers; folding one away would
	// still need the producer, so nothing may be removed.
	body := []BodyInst{
		{Inst: isa.Inst{Op: isa.ADDI, Rd: 5, Rs1: 6, Imm: 16}, Dep: [2]int{DepLiveIn, DepLiveIn}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.ADDI, Rd: 7, Rs1: 5, Imm: 16}, Dep: [2]int{0, DepLiveIn}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.ADD, Rd: 8, Rs1: 5, Rs2: 7}, Dep: [2]int{0, 1}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.LD, Rd: 9, Rs1: 8}, Dep: [2]int{2, DepLiveIn}, MemDep: DepLiveIn},
	}
	opt := Optimize(body)
	seeds := map[isa.Reg]int64{6: 512}
	if a, b := finalLoadAddr(body, seeds, mem.New()), finalLoadAddr(opt, seeds, mem.New()); a != b {
		t.Errorf("prefetch address changed: %d vs %d", a, b)
	}
}

func TestConstantFoldCountsSecondOperandUse(t *testing.T) {
	// The intermediate value's second consumer reads it as its second
	// operand; it still counts, so the chain must not fold.
	body := []BodyInst{
		{Inst: isa.Inst{Op: isa.ADDI, Rd: 5, Rs1: 6, Imm: 16}, Dep: [2]int{DepLiveIn, DepLiveIn}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.ADDI, Rd: 7, Rs1: 5, Imm: 16}, Dep: [2]int{0, DepLiveIn}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.ADD, Rd: 8, Rs1: 7, Rs2: 5}, Dep: [2]int{1, 0}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.LD, Rd: 9, Rs1: 8}, Dep: [2]int{2, DepLiveIn}, MemDep: DepLiveIn},
	}
	opt := Optimize(body)
	seeds := map[isa.Reg]int64{6: 512}
	if a, b := finalLoadAddr(body, seeds, mem.New()), finalLoadAddr(opt, seeds, mem.New()); a != b {
		t.Errorf("prefetch address changed: %d vs %d\noptimized %v", a, b, opt)
	}
}

func TestConstantFoldTracksConsumersAcrossFolds(t *testing.T) {
	// Folding #1 into #2 makes #2 read #0, which #3 also reads: #0 has two
	// consumers again and must not fold into #2.
	body := []BodyInst{
		{Inst: isa.Inst{Op: isa.ADDI, Rd: 5, Rs1: 6, Imm: 8}, Dep: [2]int{DepLiveIn, DepLiveIn}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.ADDI, Rd: 7, Rs1: 5, Imm: 16}, Dep: [2]int{0, DepLiveIn}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.ADDI, Rd: 8, Rs1: 7, Imm: 4}, Dep: [2]int{1, DepLiveIn}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.ADDI, Rd: 9, Rs1: 5, Imm: 32}, Dep: [2]int{0, DepLiveIn}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.ADD, Rd: 10, Rs1: 8, Rs2: 9}, Dep: [2]int{2, 3}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.LD, Rd: 11, Rs1: 10}, Dep: [2]int{4, DepLiveIn}, MemDep: DepLiveIn},
	}
	opt := Optimize(body)
	seeds := map[isa.Reg]int64{6: 512}
	if a, b := finalLoadAddr(body, seeds, mem.New()), finalLoadAddr(opt, seeds, mem.New()); a != b {
		t.Errorf("prefetch address changed: %d vs %d\noptimized %v", a, b, opt)
	}
}

func TestStoreLoadPairElimination(t *testing.T) {
	// st r2 -> [r1]; ld r3 <- [r1]; ld r4 <- [r3+8]: the inner load becomes
	// a move of r2, the store and its address become dead.
	body := []BodyInst{
		{Inst: isa.Inst{Op: isa.ST, Rs1: 1, Rs2: 2}, Dep: [2]int{DepLiveIn, DepLiveIn}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.LD, Rd: 3, Rs1: 1}, Dep: [2]int{DepLiveIn, DepLiveIn}, MemDep: 0},
		{Inst: isa.Inst{Op: isa.LD, Rd: 4, Rs1: 3, Imm: 8}, Dep: [2]int{1, DepLiveIn}, MemDep: DepLiveIn},
	}
	opt := Optimize(body)
	if len(opt) != 1 {
		t.Fatalf("optimized size = %d, want 1 (just the final load):\n%v", len(opt), opt)
	}
	if opt[0].Inst.Op != isa.LD || opt[0].Inst.Rs1 != 2 {
		t.Errorf("final load = %v, want ld r4,8(r2) after forwarding+move-elim", opt[0].Inst)
	}
	seeds := map[isa.Reg]int64{1: 0x100, 2: 0x2000}
	m := mem.New()
	m.Write(0x100, 0x3000) // memory disagrees with the store: forwarding must win
	if a, b := finalLoadAddr(body, seeds, m), finalLoadAddr(opt, seeds, m); a != b {
		t.Errorf("prefetch address changed: %#x vs %#x", a, b)
	}
}

func TestStoreLoadRefusedWhenDataClobbered(t *testing.T) {
	// The store's data register is redefined before the load; renaming
	// would forward the wrong value.
	body := []BodyInst{
		{Inst: isa.Inst{Op: isa.ST, Rs1: 1, Rs2: 2}, Dep: [2]int{DepLiveIn, DepLiveIn}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.LI, Rd: 2, Imm: 999}, Dep: [2]int{DepLiveIn, DepLiveIn}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.LD, Rd: 3, Rs1: 1}, Dep: [2]int{DepLiveIn, DepLiveIn}, MemDep: 0},
		{Inst: isa.Inst{Op: isa.ADD, Rd: 4, Rs1: 3, Rs2: 2}, Dep: [2]int{2, 1}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.LD, Rd: 5, Rs1: 4}, Dep: [2]int{3, DepLiveIn}, MemDep: DepLiveIn},
	}
	opt := Optimize(body)
	seeds := map[isa.Reg]int64{1: 0x500, 2: 77}
	m := mem.New()
	if a, b := finalLoadAddr(body, seeds, m), finalLoadAddr(opt, seeds, m); a != b {
		t.Errorf("prefetch address changed: %d vs %d", a, b)
	}
}

func TestDeadCodeEliminationFromRoot(t *testing.T) {
	// An instruction feeding nothing on the path to the final load is dead.
	body := []BodyInst{
		{Inst: isa.Inst{Op: isa.ADDI, Rd: 9, Rs1: 9, Imm: 1}, Dep: [2]int{DepLiveIn, DepLiveIn}, MemDep: DepLiveIn}, // dead
		{Inst: isa.Inst{Op: isa.ADDI, Rd: 5, Rs1: 6, Imm: 8}, Dep: [2]int{DepLiveIn, DepLiveIn}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.LD, Rd: 7, Rs1: 5}, Dep: [2]int{1, DepLiveIn}, MemDep: DepLiveIn},
	}
	opt := Optimize(body)
	if len(opt) != 2 {
		t.Fatalf("optimized size = %d, want 2:\n%v", len(opt), opt)
	}
	for _, bi := range opt {
		if bi.Inst.Rd == 9 {
			t.Error("dead instruction survived")
		}
	}
}

func TestMoveElimination(t *testing.T) {
	body := []BodyInst{
		{Inst: isa.Inst{Op: isa.MOV, Rd: 3, Rs1: 2}, Dep: [2]int{DepLiveIn, DepLiveIn}, MemDep: DepLiveIn},
		{Inst: isa.Inst{Op: isa.LD, Rd: 4, Rs1: 3, Imm: 16}, Dep: [2]int{0, DepLiveIn}, MemDep: DepLiveIn},
	}
	opt := Optimize(body)
	if len(opt) != 1 {
		t.Fatalf("optimized size = %d, want 1:\n%v", len(opt), opt)
	}
	if opt[0].Inst.Rs1 != 2 {
		t.Errorf("load base = r%d, want r2", opt[0].Inst.Rs1)
	}
}

func TestOptimizePreservesFinalInstruction(t *testing.T) {
	// Even a body that is a single load must survive unchanged.
	body := []BodyInst{
		{Inst: isa.Inst{Op: isa.LD, Rd: 4, Rs1: 3, Imm: 16}, Dep: [2]int{DepTrigger, DepLiveIn}, MemDep: DepLiveIn},
	}
	opt := Optimize(body)
	if len(opt) != 1 || opt[0].Inst != body[0].Inst {
		t.Fatalf("single-load body altered: %v", opt)
	}
}

func TestOptimizeEmptyBody(t *testing.T) {
	if got := Optimize(nil); len(got) != 0 {
		t.Errorf("Optimize(nil) = %v, want empty", got)
	}
}

// TestQuickOptimizePreservesPrefetchAddress generates random ADDI/LI/MOV
// chains ending in a load and checks the one invariant that matters: the
// optimized body computes the same prefetch address.
func TestQuickOptimizePreservesPrefetchAddress(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(8)
		body := make([]BodyInst, 0, n+1)
		lastWriter := map[isa.Reg]int{}
		for i := 0; i < n; i++ {
			rd := isa.Reg(1 + rng.Intn(8))
			rs := isa.Reg(1 + rng.Intn(8))
			dep := DepLiveIn
			if w, ok := lastWriter[rs]; ok {
				dep = w
			}
			var in isa.Inst
			switch rng.Intn(3) {
			case 0:
				in = isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: rs, Imm: int64(rng.Intn(64))}
			case 1:
				in = isa.Inst{Op: isa.LI, Rd: rd, Imm: int64(rng.Intn(4096))}
				dep = DepLiveIn
			case 2:
				in = isa.Inst{Op: isa.MOV, Rd: rd, Rs1: rs}
			}
			body = append(body, BodyInst{Inst: in, Dep: [2]int{dep, DepLiveIn}, MemDep: DepLiveIn})
			lastWriter[rd] = i
		}
		base := isa.Reg(1 + rng.Intn(8))
		dep := DepLiveIn
		if w, ok := lastWriter[base]; ok {
			dep = w
		}
		body = append(body, BodyInst{
			Inst: isa.Inst{Op: isa.LD, Rd: 9, Rs1: base, Imm: int64(rng.Intn(64))},
			Dep:  [2]int{dep, DepLiveIn}, MemDep: DepLiveIn,
		})
		seeds := map[isa.Reg]int64{}
		for r := isa.Reg(1); r <= 8; r++ {
			seeds[r] = int64(rng.Intn(1 << 20))
		}
		opt := Optimize(body)
		a := finalLoadAddr(body, seeds, mem.New())
		b := finalLoadAddr(opt, seeds, mem.New())
		if a != b {
			t.Fatalf("trial %d: prefetch address changed %d -> %d\noriginal %v\noptimized %v",
				trial, a, b, body, opt)
		}
	}
}
