// Package cpu implements the PRX functional interpreter. It is the single
// source of architectural semantics in the repository: the front end
// (internal/frontend) — the one functional execution of a program, whose
// records the profiler and the timing simulator read — steps it, and
// p-thread bodies execute through ExecBody, which shares the ALU evaluator.
package cpu

import (
	"fmt"

	"preexec/internal/isa"
	"preexec/internal/mem"
	"preexec/internal/program"
)

// Exec describes one dynamically executed instruction. It carries everything
// the front end turns into a record: PC, the instruction and its register
// and memory identities for the producer links, Taken/NextPC for the branch
// predictor, and EffAddr and RdVal for the memory model and the
// architectural effect.
type Exec struct {
	Seq     int64    // dynamic instruction number (0-based)
	PC      int      // static instruction index
	Inst    isa.Inst // the instruction executed
	EffAddr int64    // effective address (LD/ST only)
	Taken   bool     // conditional branch outcome
	NextPC  int      // PC of the next instruction
	RdVal   int64    // value written to Inst.Rd (if HasDest)
}

// State is a running PRX machine.
type State struct {
	Prog   *program.Program
	Regs   [isa.NumRegs]int64
	PC     int
	Mem    *mem.Memory
	Halted bool
	Count  int64 // dynamic instructions executed
}

// New returns a machine at the program's entry with a private copy of the
// initial data image.
func New(p *program.Program) *State {
	return &State{Prog: p, PC: p.Entry, Mem: p.Data.Clone()}
}

// EvalALU computes the result of a non-memory, non-control instruction given
// its source values. Shared between the interpreter and p-thread execution.
func EvalALU(in isa.Inst, s1, s2 int64) int64 {
	switch in.Op {
	case isa.ADD:
		return s1 + s2
	case isa.SUB:
		return s1 - s2
	case isa.MUL:
		return s1 * s2
	case isa.DIV:
		if s2 == 0 {
			return 0
		}
		return s1 / s2
	case isa.AND:
		return s1 & s2
	case isa.OR:
		return s1 | s2
	case isa.XOR:
		return s1 ^ s2
	case isa.SLL:
		return s1 << uint64(s2&63)
	case isa.SRL:
		return int64(uint64(s1) >> uint64(s2&63))
	case isa.SRA:
		return s1 >> uint64(s2&63)
	case isa.SLT:
		if s1 < s2 {
			return 1
		}
		return 0
	case isa.ADDI:
		return s1 + in.Imm
	case isa.ANDI:
		return s1 & in.Imm
	case isa.ORI:
		return s1 | in.Imm
	case isa.XORI:
		return s1 ^ in.Imm
	case isa.SLLI:
		return s1 << uint64(in.Imm&63)
	case isa.SRLI:
		return int64(uint64(s1) >> uint64(in.Imm&63))
	case isa.SRAI:
		return s1 >> uint64(in.Imm&63)
	case isa.SLTI:
		if s1 < in.Imm {
			return 1
		}
		return 0
	case isa.MOV:
		return s1
	case isa.LI:
		return in.Imm
	default:
		return 0
	}
}

// BranchTaken evaluates a conditional branch given its source values.
func BranchTaken(op isa.Op, s1, s2 int64) bool {
	switch op {
	case isa.BEQ:
		return s1 == s2
	case isa.BNE:
		return s1 != s2
	case isa.BLT:
		return s1 < s2
	case isa.BGE:
		return s1 >= s2
	default:
		return false
	}
}

// Step executes one instruction and returns its execution record. Stepping a
// halted machine or running off the end of the program is an error.
func (s *State) Step() (Exec, error) {
	if s.Halted {
		return Exec{}, fmt.Errorf("%s: step after halt", s.Prog.Name)
	}
	in, ok := s.Prog.At(s.PC)
	if !ok {
		return Exec{}, fmt.Errorf("%s: PC %d out of range", s.Prog.Name, s.PC)
	}
	e := Exec{Seq: s.Count, PC: s.PC, Inst: in, NextPC: s.PC + 1}
	switch isa.ClassOf(in.Op) {
	case isa.ClassNop:
	case isa.ClassALU, isa.ClassMul:
		v := EvalALU(in, s.Regs[in.Rs1], s.Regs[in.Rs2])
		e.RdVal = v
		s.setReg(in.Rd, v)
	case isa.ClassLoad:
		e.EffAddr = s.Regs[in.Rs1] + in.Imm
		v := s.Mem.Read(e.EffAddr)
		e.RdVal = v
		s.setReg(in.Rd, v)
	case isa.ClassStore:
		e.EffAddr = s.Regs[in.Rs1] + in.Imm
		s.Mem.Write(e.EffAddr, s.Regs[in.Rs2])
	case isa.ClassBranch:
		e.Taken = BranchTaken(in.Op, s.Regs[in.Rs1], s.Regs[in.Rs2])
		if e.Taken {
			e.NextPC = in.Target
		}
	case isa.ClassJump:
		switch in.Op {
		case isa.J:
			e.NextPC = in.Target
		case isa.JAL:
			e.RdVal = int64(s.PC + 1)
			s.setReg(in.Rd, e.RdVal)
			e.NextPC = in.Target
		case isa.JR:
			e.NextPC = int(s.Regs[in.Rs1])
		}
		e.Taken = true
	case isa.ClassHalt:
		s.Halted = true
		e.NextPC = s.PC
	}
	s.PC = e.NextPC
	s.Count++
	return e, nil
}

func (s *State) setReg(r isa.Reg, v int64) {
	if r != isa.Zero {
		s.Regs[r] = v
	}
}

// Run executes up to maxInsts instructions or until HALT, returning the
// number executed.
func (s *State) Run(maxInsts int64) (int64, error) {
	var n int64
	for n < maxInsts && !s.Halted {
		if _, err := s.Step(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// BodyResult is the outcome of executing a p-thread body functionally.
type BodyResult struct {
	// EffAddrs[i] is the effective address of body instruction i, or 0 for
	// non-memory instructions.
	EffAddrs []int64
	// IsLoad[i] reports whether body instruction i is a load that actually
	// accessed memory (i.e. was not satisfied by the body's own store buffer).
	// Loads satisfied by a body store are not prefetch candidates.
	FromStoreBuf []bool
}

// ExecBody executes a p-thread body functionally against a register file and
// a read-only view of memory. Stores are kept in a private store buffer (the
// speculative p-thread must never write architectural memory); loads check
// the buffer first, modeling store-to-load forwarding inside the p-thread.
// Control-flow instructions are architecturally invalid in p-thread bodies
// (p-threads are control-less, paper §2) and are executed as NOPs.
//
// ExecBody allocates its result afresh; hot callers that execute bodies
// repeatedly (the timing simulator launches one per dynamic p-thread) should
// hold a BodyExec and reuse its scratch instead.
func ExecBody(body []isa.Inst, regs []int64, m *mem.Memory) BodyResult {
	var x BodyExec
	r := x.Exec(body, regs, m)
	out := BodyResult{
		EffAddrs:     make([]int64, len(r.EffAddrs)),
		FromStoreBuf: make([]bool, len(r.FromStoreBuf)),
	}
	copy(out.EffAddrs, r.EffAddrs)
	copy(out.FromStoreBuf, r.FromStoreBuf)
	return out
}

// BodyExec executes p-thread bodies with reusable scratch: the result slices
// and the speculative store buffer are retained between calls, so a warm
// executor allocates nothing. The zero value is ready to use. Not safe for
// concurrent use.
type BodyExec struct {
	res      BodyResult
	storeBuf map[int64]int64
}

// Exec is ExecBody against the executor's reusable scratch. The returned
// result is valid until the next Exec call.
func (x *BodyExec) Exec(body []isa.Inst, regs []int64, m *mem.Memory) *BodyResult {
	if cap(x.res.EffAddrs) < len(body) {
		x.res.EffAddrs = make([]int64, len(body))
		x.res.FromStoreBuf = make([]bool, len(body))
	} else {
		x.res.EffAddrs = x.res.EffAddrs[:len(body)]
		x.res.FromStoreBuf = x.res.FromStoreBuf[:len(body)]
		clear(x.res.EffAddrs)
		clear(x.res.FromStoreBuf)
	}
	res := &x.res
	bufUsed := false
	rd := func(r isa.Reg) int64 {
		if int(r) < len(regs) {
			return regs[r]
		}
		return 0
	}
	wr := func(r isa.Reg, v int64) {
		if r != isa.Zero && int(r) < len(regs) {
			regs[r] = v
		}
	}
	for i, in := range body {
		switch isa.ClassOf(in.Op) {
		case isa.ClassALU, isa.ClassMul:
			wr(in.Rd, EvalALU(in, rd(in.Rs1), rd(in.Rs2)))
		case isa.ClassLoad:
			addr := rd(in.Rs1) + in.Imm
			res.EffAddrs[i] = addr
			if bufUsed {
				if v, ok := x.storeBuf[addr&^7]; ok {
					res.FromStoreBuf[i] = true
					wr(in.Rd, v)
					continue
				}
			}
			wr(in.Rd, m.Read(addr))
		case isa.ClassStore:
			addr := rd(in.Rs1) + in.Imm
			res.EffAddrs[i] = addr
			if !bufUsed {
				if x.storeBuf == nil {
					x.storeBuf = make(map[int64]int64)
				} else {
					clear(x.storeBuf)
				}
				bufUsed = true
			}
			x.storeBuf[addr&^7] = rd(in.Rs2)
		default:
			// NOP, control, HALT: control-less bodies treat these as NOPs.
		}
	}
	return res
}
