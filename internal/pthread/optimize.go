package pthread

import "preexec/internal/isa"

// Optimize returns a functionally equivalent, specialized body (paper §3.3):
// the final instruction's memory access — the prefetch itself — is preserved
// exactly; everything else may be rewritten or removed. Because p-threads
// are control-less single computations, optimization is a linear scan:
//
//  1. store-load pair elimination: a body load fed by a body store becomes a
//     register move (p-thread stores never commit, so a forwarded store with
//     no remaining consumers dies);
//  2. constant folding: LI/ADDI chains collapse (this is what compresses
//     induction unrolling: two "addi r5,r5,16" become one "addi r5,r5,32");
//  3. register-move elimination;
//  4. dead-code elimination by backward reachability from the final
//     instruction (legal precisely because a p-thread's only architectural
//     effect is the prefetch).
//
// The input body is not modified.
func Optimize(body []BodyInst) []BodyInst {
	w := make([]BodyInst, len(body))
	copy(w, body)
	for pass := 0; pass < 4; pass++ {
		ch1 := storeLoadElim(w)
		ch2 := constantFold(w)
		ch3 := moveElim(w)
		var ch4 bool
		w, ch4 = deadCodeElim(w)
		if !ch1 && !ch2 && !ch3 && !ch4 {
			break
		}
	}
	return w
}

// addConsumers adds delta to the consumer count n[d] of each body index d
// that bi reads (register and memory dependences).
func addConsumers(n []int, bi BodyInst, delta int) {
	for _, d := range bi.Dep {
		if d >= 0 {
			n[d] += delta
		}
	}
	if bi.MemDep >= 0 {
		n[bi.MemDep] += delta
	}
}

// regWrittenBetween reports whether any instruction in (from, to) exclusive
// writes r.
func regWrittenBetween(body []BodyInst, from, to int, r isa.Reg) bool {
	for i := from + 1; i < to; i++ {
		if body[i].Inst.HasDest() && body[i].Inst.Rd == r {
			return true
		}
	}
	return false
}

// storeLoadElim rewrites loads whose MemDep names a body store into moves
// from the store's data register. The final instruction is never rewritten:
// it is the prefetch.
func storeLoadElim(body []BodyInst) bool {
	changed := false
	for j := 0; j < len(body)-1; j++ {
		bi := &body[j]
		if bi.Inst.Op != isa.LD || bi.MemDep < 0 {
			continue
		}
		st := body[bi.MemDep]
		if st.Inst.Op != isa.ST {
			continue
		}
		data := st.Inst.Rs2
		if regWrittenBetween(body, bi.MemDep, j, data) {
			continue // the forwarded name is clobbered; unsafe to rename
		}
		bi.Inst = isa.Inst{Op: isa.MOV, Rd: bi.Inst.Rd, Rs1: data}
		bi.Dep = [2]int{st.Dep[1], DepLiveIn} // the store's data producer
		bi.MemDep = DepLiveIn
		changed = true
	}
	return changed
}

// constantFold collapses LI->ADDI and ADDI->ADDI chains where the producer
// has a single consumer. The producer is turned into a NOP (removed by DCE).
func constantFold(body []BodyInst) bool {
	changed := false
	consumers := make([]int, len(body))
	for _, bi := range body {
		addConsumers(consumers, bi, 1)
	}
	for {
		folded := false
		for j, bi := range body {
			if bi.Inst.Op != isa.ADDI {
				continue
			}
			p := bi.Dep[0]
			if p < 0 || consumers[p] != 1 {
				continue
			}
			prod := body[p]
			switch prod.Inst.Op {
			case isa.LI:
				body[j].Inst = isa.Inst{Op: isa.LI, Rd: bi.Inst.Rd, Imm: prod.Inst.Imm + bi.Inst.Imm}
				body[j].Dep = [2]int{DepLiveIn, DepLiveIn}
				body[p].Inst = isa.Inst{Op: isa.NOP}
				body[p].Dep = [2]int{DepLiveIn, DepLiveIn}
				folded = true
			case isa.ADDI:
				// Need the producer's source name live at j.
				if regWrittenBetween(body, p, j, prod.Inst.Rs1) {
					continue
				}
				body[j].Inst = isa.Inst{
					Op: isa.ADDI, Rd: bi.Inst.Rd, Rs1: prod.Inst.Rs1,
					Imm: prod.Inst.Imm + bi.Inst.Imm,
				}
				body[j].Dep = [2]int{prod.Dep[0], DepLiveIn}
				body[p].Inst = isa.Inst{Op: isa.NOP}
				body[p].Dep = [2]int{DepLiveIn, DepLiveIn}
				folded = true
			}
			if folded {
				// Move the counts from the old instructions to the new.
				addConsumers(consumers, bi, -1)
				addConsumers(consumers, prod, -1)
				addConsumers(consumers, body[j], 1)
				addConsumers(consumers, body[p], 1)
				break
			}
		}
		if !folded {
			return changed
		}
		changed = true
	}
}

// moveElim rewires consumers of MOV instructions to read the moved-from
// register directly, when the source name survives to the consumer.
func moveElim(body []BodyInst) bool {
	changed := false
	for j, bi := range body {
		if bi.Inst.Op != isa.MOV {
			continue
		}
		src := bi.Inst.Rs1
		for u := j + 1; u < len(body); u++ {
			c := &body[u]
			srcs, ns := c.Inst.Sources()
			for s := 0; s < ns; s++ {
				if c.Dep[s] != j {
					continue
				}
				if regWrittenBetween(body, j, u, src) {
					continue
				}
				// Rename operand s of the consumer to the move's source.
				switch s {
				case 0:
					c.Inst.Rs1 = src
				case 1:
					c.Inst.Rs2 = src
				}
				_ = srcs
				c.Dep[s] = bi.Dep[0]
				changed = true
			}
		}
	}
	return changed
}

// deadCodeElim removes instructions not backward-reachable from the final
// instruction, remapping dependence indexes. It returns the compacted body.
func deadCodeElim(body []BodyInst) ([]BodyInst, bool) {
	if len(body) == 0 {
		return body, false
	}
	live := make([]bool, len(body))
	var mark func(i int)
	mark = func(i int) {
		if i < 0 || live[i] {
			return
		}
		live[i] = true
		for _, d := range body[i].Dep {
			mark(d)
		}
		mark(body[i].MemDep)
	}
	mark(len(body) - 1)
	// NOPs are never live even if referenced (folded producers).
	for i := range body {
		if body[i].Inst.Op == isa.NOP {
			live[i] = false
		}
	}
	remap := make([]int, len(body))
	out := body[:0]
	n := 0
	for i, bi := range body {
		if live[i] {
			remap[i] = n
			out = append(out, bi)
			n++
		} else {
			remap[i] = -1
		}
	}
	changed := n != len(body)
	fix := func(d int) int {
		if d < 0 {
			return d
		}
		if remap[d] < 0 {
			return DepLiveIn // producer dropped; value must come from seeds
		}
		return remap[d]
	}
	for i := range out {
		out[i].Dep[0] = fix(out[i].Dep[0])
		out[i].Dep[1] = fix(out[i].Dep[1])
		out[i].MemDep = fix(out[i].MemDep)
	}
	return out, changed
}
