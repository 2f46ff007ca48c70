package timing

import (
	"context"
	"testing"

	"preexec/internal/isa"
	"preexec/internal/program"
	"preexec/internal/pthread"
	"preexec/internal/workload"
)

// derivedProgram is a pointer chase whose every value a replay must derive
// rather than read from its records. A fill loop stores pointers into a
// table, and a copy loop loads each back (a load's value comes from the
// replica's memory) and stores it into a second table through a register
// only that store reads (a store's value comes from its data register).
// An endless chase loop then loads the pointers, touches each target with
// a load into R0 (an address but no value) and calls a function through
// JAL (a link value) that loads the target's word and stores a running sum
// next to it.
func derivedProgram() *program.Program {
	const (
		table = 0x10000
		heap  = 0x400000
		n     = 2048
	)
	b := program.NewBuilder("derived")
	b.Li(1, table).Li(2, 0).Li(9, n).Li(10, 40503)
	b.Label("fill")
	b.Mul(3, 2, 10).Andi(3, 3, 1<<16-1).Slli(3, 3, 6).Addi(3, 3, heap)
	b.Slli(4, 2, 3).Add(4, 4, 1)
	b.St(3, 4, 0)
	b.Addi(2, 2, 1).Blt(2, 9, "fill")
	b.Li(2, 0)
	b.Label("copy")
	b.Slli(4, 2, 3).Add(4, 4, 1)
	b.Ld(6, 4, 0).St(6, 4, copyOff)
	b.Addi(2, 2, 1).Blt(2, 9, "copy")
	b.Label("outer").Li(2, 0)
	b.Label("chase")
	b.Slli(4, 2, 3).Add(4, 4, 1)
	b.Ld(5, 4, 0)   // the pointer the fill loop stored
	b.Ld(0, 5, 0)   // load into R0: the target's line, no value
	b.Jal(31, "fn") // link value
	b.Addi(2, 2, 1).Blt(2, 9, "chase")
	b.J("outer")
	b.Label("fn")
	b.Ld(8, 5, 8).Add(7, 7, 8).St(7, 5, 8)
	b.Jr(31)
	return b.MustBuild()
}

// copyOff is the offset of derivedProgram's second table from its first.
const copyOff = 0x8000

// derivedPThreads returns a p-thread triggered by the chase loop's index
// increment: it loads the next pointer from the second table — a word only
// a store of a loaded register put there — and chases it to the next
// iteration's target, and it
// reads the loaded pointer and the JAL link from the launch registers.
// Every effective address it issues depends on a value the replay derives.
func derivedPThreads(p *program.Program) []*pthread.PThread {
	trigger := -1
	for pc, in := range p.Insts {
		if in.Op == isa.ADDI && in.Rd == 2 && pc > p.Labels["chase"] {
			trigger = pc
			break
		}
	}
	live := [2]int{pthread.DepLiveIn, pthread.DepLiveIn}
	body := []pthread.BodyInst{
		{Inst: isa.Inst{Op: isa.SLLI, Rd: 40, Rs1: 2, Imm: 3}, Dep: [2]int{pthread.DepTrigger, pthread.DepLiveIn}, MemDep: pthread.DepLiveIn},
		{Inst: isa.Inst{Op: isa.ADD, Rd: 40, Rs1: 40, Rs2: 1}, Dep: [2]int{0, pthread.DepLiveIn}, MemDep: pthread.DepLiveIn},
		{Inst: isa.Inst{Op: isa.LD, Rd: 41, Rs1: 40, Imm: copyOff}, Dep: [2]int{1, pthread.DepLiveIn}, MemDep: pthread.DepLiveIn},
		{Inst: isa.Inst{Op: isa.LD, Rd: 42, Rs1: 41, Imm: 8}, Dep: [2]int{2, pthread.DepLiveIn}, MemDep: pthread.DepLiveIn},
		{Inst: isa.Inst{Op: isa.LD, Rd: 43, Rs1: 5, Imm: 64}, Dep: live, MemDep: pthread.DepLiveIn},
		{Inst: isa.Inst{Op: isa.SLLI, Rd: 44, Rs1: 31, Imm: 12}, Dep: live, MemDep: pthread.DepLiveIn},
		{Inst: isa.Inst{Op: isa.ADD, Rd: 44, Rs1: 44, Rs2: 41}, Dep: [2]int{5, 2}, MemDep: pthread.DepLiveIn},
		{Inst: isa.Inst{Op: isa.LD, Rd: 45, Rs1: 44}, Dep: [2]int{6, pthread.DepLiveIn}, MemDep: pthread.DepLiveIn},
	}
	return []*pthread.PThread{{TriggerPC: trigger, Roots: []int{trigger + 2}, Body: body}}
}

// TestReplayDerivesValues pins the replay's value reconstruction: records
// keep a load's address and not its value, and no store value at all, so
// the replica must derive both in fetch order, and it skips loads into
// registers nothing reads. On a program whose p-thread addresses depend on
// stored, loaded and linked values, Replay equals RunContext and the
// frozen reference core in all five modes.
func TestReplayDerivesValues(t *testing.T) {
	p := derivedProgram()
	pts := derivedPThreads(p)
	if pts[0].TriggerPC < 0 {
		t.Fatal("no trigger found in the chase loop")
	}
	cfg := DefaultConfig()
	cfg.WarmInsts, cfg.MaxInsts = 5_000, 60_000
	tr := recordFor(t, p, cfg)
	for _, mode := range allModes {
		cfg.Mode = mode
		want, err := RunContext(context.Background(), p, pts, cfg)
		if err != nil {
			t.Fatalf("%s: simulation: %v", mode, err)
		}
		got, err := Replay(context.Background(), tr, pts, cfg)
		if err != nil {
			t.Fatalf("%s: replay: %v", mode, err)
		}
		if got != want {
			t.Errorf("%s: replay diverges from simulation\n got: %+v\nwant: %+v", mode, got, want)
		}
		ref, err := refRun(p, pts, cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", mode, err)
		}
		if got != ref {
			t.Errorf("%s: replay diverges from the reference core\n got: %+v\nwant: %+v", mode, got, ref)
		}
		if mode == ModeNormal && (got.Launches == 0 || got.MissesCovered == 0) {
			t.Errorf("%s: %d launches covering %d misses: the p-thread must launch and prefetch", mode, got.Launches, got.MissesCovered)
		}
	}
}

// TestNoReplicaWithoutLaunch pins the replay's architectural replica to the
// runs that read it: a replay with no selection, or in ModeBase, or in
// ModeOverheadSequence (which discards bodies unexecuted) builds none and
// applies no record's effect, while a pre-execution replay does.
func TestNoReplicaWithoutLaunch(t *testing.T) {
	w, err := workload.ByName("vpr.p")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(1)
	const warm, measure = 10_000, 30_000
	pts := selectFor(t, prog, warm, measure)
	if len(pts) == 0 {
		t.Fatal("vpr.p selected no p-threads")
	}
	cfg := DefaultConfig()
	cfg.WarmInsts, cfg.MaxInsts = warm, measure
	tr := recordFor(t, prog, cfg)
	for _, c := range []struct {
		name    string
		mode    Mode
		pts     []*pthread.PThread
		replica bool
	}{
		{"base/none", ModeBase, nil, false},
		{"base/selected", ModeBase, pts, false},
		{"normal/none", ModeNormal, nil, false},
		{"normal/empty", ModeNormal, []*pthread.PThread{}, false},
		{"overhead-sequence/selected", ModeOverheadSequence, pts, false},
		{"normal/selected", ModeNormal, pts, true},
		{"latency-only/selected", ModeLatencyOnly, pts, true},
	} {
		cfg.Mode = c.mode
		r := newReplay(tr, c.pts, cfg.withDefaults())
		if got := r.arch != nil; got != c.replica {
			t.Errorf("%s: replica built = %v, want %v", c.name, got, c.replica)
		}
		if _, err := r.run(context.Background(), runTotal(cfg.withDefaults())); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}
