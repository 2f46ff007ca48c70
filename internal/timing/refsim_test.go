package timing

// This file is a frozen copy of the pre-optimization simulator core (the
// cycle-by-cycle, heap-per-uop implementation that shipped before the arena /
// ring-buffer / cycle-skip rewrite of sim.go). It exists only as a test
// oracle: TestOptimizedCoreMatchesReference asserts that the optimized core
// produces bit-for-bit identical Stats on every workload in every mode.
//
// Nothing here is reachable from non-test code. When the simulator's
// *modeled* behaviour changes intentionally, update this copy in the same
// commit and say so — the invariant the equivalence tests defend is
// "optimizations must not change results", not "the model may never evolve".

import (
	"context"
	"fmt"

	"preexec/internal/branch"
	"preexec/internal/cache"
	"preexec/internal/cpu"
	"preexec/internal/isa"
	"preexec/internal/program"
	"preexec/internal/pthread"
)

// refUop is one in-flight instruction (main-thread or p-thread).
type refUop struct {
	seq     int64 // main-thread dynamic index; -1 for p-thread uops
	pc      int
	inst    isa.Inst
	effAddr int64

	prod     [3]*refUop // register (0,1) and memory/extra (2) producers
	readyMin int64      // earliest issue cycle from non-uop inputs (live-ins)

	availC  int64 // cycle the front end delivers it to rename
	renamed bool
	issued  bool
	compC   int64
	retired bool

	isPt    bool
	fwdHit  bool // load satisfied by store-queue / p-thread store buffer
	mispred bool
}

func (u *refUop) isLoad() bool  { return u.inst.Op == isa.LD }
func (u *refUop) isStore() bool { return u.inst.Op == isa.ST }

// refPtContext is one of the additional SMT contexts p-threads run in.
type refPtContext struct {
	pending []*refUop // body uops not yet injected
	burstAt int64     // next injection cycle
}

func (c *refPtContext) busy() bool { return len(c.pending) > 0 }

// refMemsys is the frozen copy of the event-driven data-memory system.
type refMemsys struct {
	cfg   Config
	l1d   *cache.Cache
	l2    *cache.Cache
	stats *Stats

	backsideFree int64
	membusFree   int64
	mshr         []int64 // release times of outstanding misses
}

func newRefMemsys(cfg Config, stats *Stats) *refMemsys {
	h := cache.DefaultHierarchy()
	return &refMemsys{cfg: cfg, l1d: h.L1D, l2: h.L2, stats: stats}
}

func refBusWait(cursor *int64, now int64, occ int64) int64 {
	start := now
	if *cursor > start {
		start = *cursor
	}
	*cursor = start + occ
	return start - now
}

func (m *refMemsys) mshrWait(now int64) int64 {
	live := m.mshr[:0]
	var minRel int64 = 1 << 62
	for _, r := range m.mshr {
		if r > now {
			live = append(live, r)
			if r < minRel {
				minRel = r
			}
		}
	}
	m.mshr = live
	if len(m.mshr) < m.cfg.MSHRs {
		return 0
	}
	return minRel - now
}

func (m *refMemsys) l2Access(addr int64, t int64, pt bool) int64 {
	hit, _, line := m.l2.Access(addr, false)
	if hit {
		switch {
		case line.ReadyAt <= t:
			if !pt && line.BroughtByPt {
				m.stats.MissesCovered++
				m.stats.MissesFullCovered++
				line.BroughtByPt = false
			}
			return t + int64(m.cfg.L2Lat)
		default:
			if !pt && line.BroughtByPt {
				m.stats.MissesCovered++
				line.BroughtByPt = false
			}
			ready := line.ReadyAt
			if ready < t+int64(m.cfg.L2Lat) {
				ready = t + int64(m.cfg.L2Lat)
			}
			return ready
		}
	}
	delay := m.mshrWait(t)
	delay += refBusWait(&m.membusFree, t+delay, int64(m.cfg.MemBusCy))
	ready := t + delay + int64(m.cfg.L2Lat) + int64(m.cfg.MemLat)
	m.mshr = append(m.mshr, ready)
	line.ReadyAt = ready
	line.BroughtByPt = pt
	if pt {
		line.PtReqAt = t
	} else {
		m.stats.L2Misses++
	}
	return ready
}

func (m *refMemsys) mainLoad(addr int64, t int64) int64 {
	hit, _, l1 := m.l1d.Access(addr, false)
	if hit && l1.ReadyAt <= t {
		return t + int64(m.cfg.L1DLat)
	}
	if hit {
		return l1.ReadyAt
	}
	t1 := t + int64(m.cfg.L1DLat)
	t1 += refBusWait(&m.backsideFree, t1, int64(m.cfg.BacksideBusCy))
	ready := m.l2Access(addr, t1, false)
	l1.ReadyAt = ready
	return ready
}

func (m *refMemsys) ptLoad(addr int64, t int64) int64 {
	return m.l2Access(addr, t, true)
}

func (m *refMemsys) mainStore(addr int64, t int64) {
	hit, victimDirty, l1 := m.l1d.Access(addr, true)
	if hit {
		return
	}
	refBusWait(&m.backsideFree, t, int64(m.cfg.BacksideBusCy))
	if victimDirty {
		refBusWait(&m.backsideFree, t, int64(m.cfg.BacksideBusCy))
	}
	l2hit, _, l2 := m.l2.Access(addr, true)
	if !l2hit {
		refBusWait(&m.membusFree, t, int64(m.cfg.MemBusCy))
		l2.ReadyAt = t + int64(m.cfg.L2Lat) + int64(m.cfg.MemLat)
	}
	l1.ReadyAt = t + int64(m.cfg.L1DLat)
}

// refSim is a single timing simulation on the frozen reference core.
type refSim struct {
	cfg    Config
	prog   *program.Program
	oracle *cpu.State
	pred   *branch.Predictor
	mem    *refMemsys
	stats  Stats

	cycle int64

	fetchQ       []*refUop
	fetchBlocker *refUop
	fetchDone    bool

	regProd [isa.NumRegs]*refUop

	rob    []*refUop
	window []*refUop
	storeQ []*refUop

	triggers map[int][]*pthread.PThread
	ctxs     []*refPtContext
}

func newRefSim(prog *program.Program, pts []*pthread.PThread, cfg Config) *refSim {
	cfg = cfg.withDefaults()
	s := &refSim{
		cfg:      cfg,
		prog:     prog,
		oracle:   cpu.New(prog),
		pred:     branch.New(branch.DefaultConfig()),
		triggers: make(map[int][]*pthread.PThread),
		ctxs:     make([]*refPtContext, cfg.PtContexts),
	}
	s.mem = newRefMemsys(cfg, &s.stats)
	for i := range s.ctxs {
		s.ctxs[i] = &refPtContext{}
	}
	if cfg.Mode != ModeBase {
		for _, pt := range pts {
			s.triggers[pt.TriggerPC] = append(s.triggers[pt.TriggerPC], pt)
		}
	}
	return s
}

// refRun simulates to completion on the frozen reference core.
func refRun(prog *program.Program, pts []*pthread.PThread, cfg Config) (Stats, error) {
	return newRefSim(prog, pts, cfg).runContext(context.Background())
}

func (s *refSim) runContext(ctx context.Context) (Stats, error) {
	total := s.cfg.WarmInsts + s.cfg.MaxInsts
	if total < 0 { // overflow of the "unbounded" default
		total = s.cfg.MaxInsts
	}
	guard := livelockGuard(total) // shared with the optimized core (the frozen core had an overflow bug here)
	done := ctx.Done()
	var warm Stats
	var warmCycle int64
	warmed := s.cfg.WarmInsts == 0
	for {
		if done != nil && s.cycle&ctxCheckMask == 0 {
			select {
			case <-done:
				return s.stats, ctx.Err()
			default:
			}
		}
		s.retire()
		s.issue()
		s.rename()
		s.fetch()
		s.cycle++
		if !warmed && s.stats.Retired >= s.cfg.WarmInsts {
			warm = s.stats
			warmCycle = s.cycle
			warmed = true
		}
		if s.stats.Retired >= total {
			break
		}
		if s.fetchDone && len(s.fetchQ) == 0 && len(s.rob) == 0 {
			break
		}
		if s.cycle > guard {
			return s.stats, fmt.Errorf("timing: no forward progress after %d cycles (%s)", s.cycle, s.prog.Name)
		}
	}
	st := subStats(s.stats, warm)
	st.Cycles = s.cycle - warmCycle
	if st.Cycles > 0 {
		st.IPC = float64(st.Retired) / float64(st.Cycles)
	}
	if st.Launches > 0 {
		st.AvgPtLen = float64(st.PtInsts) / float64(st.Launches)
	}
	return st, nil
}

func (s *refSim) fetch() {
	if s.fetchDone {
		return
	}
	if s.fetchBlocker != nil {
		b := s.fetchBlocker
		if !b.issued || s.cycle < b.compC+int64(s.cfg.RedirectPenalty) {
			s.stats.FetchStalls++
			return
		}
		s.fetchBlocker = nil
	}
	if len(s.fetchQ) >= 2*s.cfg.Width {
		return // front-end buffer full
	}
	for n := 0; n < s.cfg.Width; n++ {
		if s.oracle.Halted {
			s.fetchDone = true
			return
		}
		e, err := s.oracle.Step()
		if err != nil {
			s.fetchDone = true
			return
		}
		u := &refUop{
			seq: e.Seq, pc: e.PC, inst: e.Inst, effAddr: e.EffAddr,
			availC: s.cycle + int64(s.cfg.FrontEndDepth),
		}
		s.fetchQ = append(s.fetchQ, u)
		switch isa.ClassOf(e.Inst.Op) {
		case isa.ClassBranch:
			s.stats.BrLookups++
			_, correct := s.pred.PredictAndTrain(e.PC, e.Taken)
			if !correct {
				s.stats.BrMispred++
				u.mispred = true
				s.fetchBlocker = u
				return
			}
			if e.Taken {
				return // fetch break on taken branch
			}
		case isa.ClassJump:
			if e.Inst.Op == isa.JR {
				if s.pred.BTBLookup(e.PC) != e.NextPC {
					s.stats.BrMispred++
					u.mispred = true
					s.fetchBlocker = u
					s.pred.BTBInsert(e.PC, e.NextPC)
					return
				}
			}
			return // fetch break on taken control
		case isa.ClassHalt:
			s.fetchDone = true
			return
		}
	}
}

func (s *refSim) rename() {
	budget := s.cfg.Width

	rsHeadroom := s.cfg.RS - 2*s.cfg.Width
	for _, ctx := range s.ctxs {
		if !ctx.busy() || s.cycle < ctx.burstAt {
			continue
		}
		if !s.cfg.NoRSThrottle && s.cfg.Mode != ModeOverheadSequence && s.rsUsed() >= rsHeadroom {
			continue // retry next cycle
		}
		n := s.cfg.PtBurst
		if n > len(ctx.pending) {
			n = len(ctx.pending)
		}
		if s.cfg.Mode != ModeLatencyOnly {
			if n > budget {
				n = budget
			}
			budget -= n
		}
		if n == 0 {
			continue
		}
		for _, u := range ctx.pending[:n] {
			s.stats.PtInsts++
			if s.cfg.Mode == ModeOverheadSequence {
				continue // sequenced and immediately discarded
			}
			u.renamed = true
			u.availC = s.cycle
			s.window = append(s.window, u)
		}
		ctx.pending = ctx.pending[n:]
		ctx.burstAt = s.cycle + int64(s.cfg.PtBurst)
	}

	for budget > 0 && len(s.fetchQ) > 0 {
		u := s.fetchQ[0]
		if u.availC > s.cycle || len(s.rob) >= s.cfg.ROB || s.rsUsed() >= s.cfg.RS {
			return
		}
		if u.isStore() && len(s.storeQ) >= s.cfg.StoreQueue {
			return
		}
		s.fetchQ = s.fetchQ[1:]
		budget--
		u.renamed = true
		srcs, ns := u.inst.Sources()
		for i := 0; i < ns; i++ {
			if srcs[i] != isa.Zero {
				if p := s.regProd[srcs[i]]; p != nil && !p.retired {
					u.prod[i] = p
				}
			}
		}
		if u.inst.HasDest() {
			s.regProd[u.inst.Rd] = u
		}
		if u.isStore() {
			s.storeQ = append(s.storeQ, u)
		}
		s.rob = append(s.rob, u)
		s.window = append(s.window, u)
		if pts := s.triggers[u.pc]; pts != nil {
			s.launch(pts, u)
		}
	}
}

func (s *refSim) rsUsed() int {
	n := 0
	for _, u := range s.window {
		if !u.issued {
			n++
		}
	}
	return n
}

func (s *refSim) launch(pts []*pthread.PThread, trigger *refUop) {
	for _, pt := range pts {
		if !pt.ActiveAt(trigger.seq) {
			continue
		}
		var ctx *refPtContext
		for _, c := range s.ctxs {
			if !c.busy() {
				ctx = c
				break
			}
		}
		if ctx == nil {
			s.stats.Drops++
			continue
		}
		s.stats.Launches++
		if s.cfg.Mode == ModeOverheadSequence {
			ctx.pending = make([]*refUop, pt.Size())
			for i := range ctx.pending {
				ctx.pending[i] = &refUop{seq: -1, isPt: true, inst: pt.Body[i].Inst}
			}
			ctx.burstAt = s.cycle + 1
			continue
		}
		regs := make([]int64, isa.PtRegs)
		copy(regs[:isa.NumRegs], s.oracle.Regs[:])
		res := cpu.ExecBody(pt.Insts(), regs, s.oracle.Mem)
		uops := make([]*refUop, len(pt.Body))
		for i, bi := range pt.Body {
			pu := &refUop{seq: -1, isPt: true, inst: bi.Inst, effAddr: res.EffAddrs[i], readyMin: s.cycle}
			for k := 0; k < 2; k++ {
				switch d := bi.Dep[k]; {
				case d >= 0:
					pu.prod[k] = uops[d]
				case d == pthread.DepTrigger:
					pu.prod[k] = trigger
				}
			}
			if bi.MemDep >= 0 {
				pu.prod[2] = uops[bi.MemDep]
			}
			pu.fwdHit = res.FromStoreBuf[i]
			uops[i] = pu
		}
		ctx.pending = uops
		ctx.burstAt = s.cycle + 1
	}
}

func (s *refSim) issue() {
	slots := s.cfg.Width
	kept := s.window[:0]
	for _, u := range s.window {
		if u.issued {
			continue
		}
		if slots == 0 || !s.ready(u) {
			kept = append(kept, u)
			continue
		}
		slots--
		u.issued = true
		u.compC = s.complete(u)
	}
	s.window = kept
}

func (s *refSim) ready(u *refUop) bool {
	if u.readyMin > s.cycle {
		return false
	}
	for _, p := range u.prod {
		if p == nil {
			continue
		}
		if !p.issued || p.compC > s.cycle {
			return false
		}
	}
	return true
}

func (s *refSim) complete(u *refUop) int64 {
	now := s.cycle
	switch isa.ClassOf(u.inst.Op) {
	case isa.ClassLoad:
		t := now + int64(s.cfg.AgenLat)
		if u.isPt {
			if u.fwdHit {
				return t + int64(s.cfg.ForwardLat)
			}
			if s.cfg.Mode == ModeOverheadExecute {
				return t + int64(s.cfg.L2Lat)
			}
			return s.mem.ptLoad(u.effAddr, t)
		}
		s.stats.Loads++
		if s.forwardFrom(u) {
			u.fwdHit = true
			return t + int64(s.cfg.ForwardLat)
		}
		return s.mem.mainLoad(u.effAddr, t)
	case isa.ClassStore:
		return now + int64(s.cfg.AgenLat)
	case isa.ClassMul:
		return now + int64(isa.Latency(u.inst.Op))
	default:
		return now + 1
	}
}

func (s *refSim) forwardFrom(ld *refUop) bool {
	for i := len(s.storeQ) - 1; i >= 0; i-- {
		st := s.storeQ[i]
		if st.seq < ld.seq && st.issued && st.effAddr&^7 == ld.effAddr&^7 {
			return true
		}
	}
	return false
}

func (s *refSim) retire() {
	n := 0
	for n < s.cfg.Width && len(s.rob) > 0 {
		u := s.rob[0]
		if !u.issued || u.compC > s.cycle {
			return
		}
		u.retired = true
		s.rob = s.rob[1:]
		if u.isStore() {
			s.mem.mainStore(u.effAddr, s.cycle)
			for i, st := range s.storeQ {
				if st == u {
					s.storeQ = append(s.storeQ[:i], s.storeQ[i+1:]...)
					break
				}
			}
		}
		s.stats.Retired++
		n++
	}
}
