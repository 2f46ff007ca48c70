// Package frontend is the repository's one functional execution of a
// program: the oracle interpreter, the branch predictor fetch consults, and
// the same-word store table, stepped together into one record per dynamic
// instruction. Both consumers read those records and never
// execute the program themselves: the timing backend (internal/timing)
// schedules them, and the slice-tree profiler (internal/slice) runs them
// through the cache model and slices every L2 miss along their producer
// links.
//
// The record stream depends on the program alone. Fetch is execution-driven
// on the correct path, so the dynamic instruction sequence, the effective
// addresses and the predictor's verdicts depend only on the program and the
// fetch (= program) order in which the predictor trains — never on
// p-threads, on the machine, or on the profiler's options. Record runs the
// front end ahead once, so every consumer of a run's prefix can share one
// recording; a consumer of a run too long to retain steps a fresh FrontEnd
// instead and reads the same records.
//
// A record holds only what changes from one execution of an instruction to
// the next: its PC, its store link, the predictor's verdict, and one data
// word (a memory access's effective address, or the value written to a
// destination register). Everything fixed by the PC — class, latency,
// source and destination registers, static flags — is in the program's
// decode table (Decode), which a Trace builds before anyone reads it.
// Register producer links follow from the PC stream and the decode table
// alone, so a record does not carry them: each consumer runs a Renamer
// over the records in program order and derives them as it goes.
//
// P-thread launches read the architectural state at the launch point; a
// replay reconstructs it by applying records to a replica in fetch order,
// taking a load's value from the replica's memory and a store's from its
// data register.
package frontend

import (
	"context"
	"math"

	"preexec/internal/branch"
	"preexec/internal/cpu"
	"preexec/internal/isa"
	"preexec/internal/program"
)

// Record flags, as Dec.Flags returns them. FMispredict and FBreak of a
// conditional branch, and FMispredict of a JR, vary between executions and
// are carried in the record's Word; the rest are fixed by the PC.
const (
	FStore      = 1 << iota // ST: Word is the address, the value is in Rs2
	FHasDest                // writes Rd (never the zero register)
	FBrLookup               // conditional branch: counts a predictor lookup
	FMispredict             // mispredicted branch or JR: becomes the fetch blocker
	FBreak                  // taken control: fetch stops after this instruction
	FHalt                   // HALT: fetch is done after this instruction
)

// NoDest marks an absent destination register in Dec.Rd.
const NoDest = 0xff

// Rec is one fetched instruction: the part of its execution that is not
// fixed by its PC. Dec, the PC's decode-table entry, holds the rest.
//
// Word is the effective address of a load or store, the destination value
// of any other instruction that writes a register (FHasDest), and the
// dynamic flags (FMispredict, FBreak) of a conditional branch or JR; 0
// otherwise. A load's value and a store's value are not recorded: a replay
// reads them from its own replica (see package doc).
//
// PrevStore, for a load or store, is the backward distance to the most
// recent earlier store to the same word; 0 is no link (see LinkTo). The
// store table is maintained in program order, which is exactly fetch order,
// so its whole evolution is a property of the stream and is computed here.
// Register producers are not stored, because a Renamer derives them from
// the PC stream alone; the store link is, because rebuilding it would cost
// every consumer a per-word map.
type Rec struct {
	Word      int64
	PrevStore int32
	PC        int32
}

// Dec is one instruction's decode-table entry: everything a consumer of its
// records needs that does not change between executions.
type Dec struct {
	Class  uint8 // isa.Class
	LatAdd uint8 // non-memory completion latency (Mul: 3, else 1)
	Rd     uint8 // destination register; NoDest = none
	Rs2    uint8 // ST: the register holding the stored value
	// Src holds the source registers as enumerated by isa.Inst.Sources;
	// NoDest marks an absent source or R0, which no instruction produces.
	Src   [2]uint8
	flags uint8 // flags every execution has
	dyn   uint8 // flags a record carries in Word
}

// Flags returns the flags of rec, a record of d's instruction: d's static
// flags and the dynamic ones rec carries.
func (d *Dec) Flags(rec *Rec) uint8 { return d.flags | uint8(rec.Word)&d.dyn }

// Decode returns prog's decode table, indexed by PC.
func Decode(prog *program.Program) []Dec {
	dec := make([]Dec, len(prog.Insts))
	for pc, in := range prog.Insts {
		c := isa.ClassOf(in.Op)
		d := Dec{Class: uint8(c), LatAdd: uint8(isa.Latency(in.Op)), Rd: NoDest, Src: [2]uint8{NoDest, NoDest}}
		srcs, ns := in.Sources()
		for i, r := range srcs[:ns] {
			if r != isa.Zero {
				d.Src[i] = uint8(r)
			}
		}
		if in.HasDest() {
			d.Rd = uint8(in.Rd)
			d.flags |= FHasDest
		}
		switch c {
		case isa.ClassStore:
			d.Rs2 = uint8(in.Rs2)
			d.flags |= FStore
		case isa.ClassBranch:
			d.flags |= FBrLookup
			d.dyn = FMispredict | FBreak
		case isa.ClassJump:
			d.flags |= FBreak
			if in.Op == isa.JR {
				d.dyn = FMispredict
			}
		case isa.ClassHalt:
			d.flags |= FHalt
		}
		dec[pc] = d
	}
	return dec
}

// LinkTo encodes the backward store link from record seq to the earlier
// record j (-1 for none) as the distance seq-j, 0 meaning no link.
// Consumers follow store links only a bounded distance back — the timing
// backend within its in-flight window of a few hundred records, the
// profiler within its slicing scope — so a target farther back than an
// int32 distance is never followed and dropping that link is exact.
// Sequence numbers themselves never narrow.
func LinkTo(seq, j int64) int32 {
	if j < 0 || seq-j > math.MaxInt32 {
		return 0
	}
	return int32(seq - j)
}

// LinkBack decodes a LinkTo distance from record seq: the linked record's
// sequence number, or -1 for no link.
func LinkBack(seq int64, d int32) int64 {
	if d == 0 {
		return -1
	}
	return seq - int64(d)
}

// Renamer is a rename table over sequence numbers: the most recent writer
// of each register. Run over a record stream in program order, it yields
// each record's register producers — the links a record does not store.
// The zero Renamer has seen no writer; Reset returns it to that state.
type Renamer struct {
	// last[r] is 1 + the sequence number of register r's most recent
	// writer, 0 for none. It spans every uint8 so that Link indexes it
	// without bounds checks; last[NoDest] stays 0, so an absent source
	// reads no producer and an absent destination writes nothing visible.
	last [256]int64
}

// Reset forgets every writer.
func (r *Renamer) Reset() { *r = Renamer{} }

// Link returns the sequence numbers of the register producers of record
// seq, whose decode-table entry is d — per source operand as enumerated by
// isa.Inst.Sources, -1 for none — and enters the record as the newest
// writer of its destination. Records must be linked in sequence order,
// each once.
func (r *Renamer) Link(seq int64, d *Dec) [2]int64 {
	p := [2]int64{r.last[d.Src[0]] - 1, r.last[d.Src[1]] - 1}
	r.last[d.Rd] = seq + 1
	r.last[NoDest] = 0
	return p
}

// Linker maintains the per-word last-store table over sequence numbers and
// links each executed instruction's record to the previous store to its
// word. The zero Linker is not usable; see NewLinker.
type Linker struct {
	lastStore map[int64]int64 // word address -> most recent store to it
}

// NewLinker returns a Linker with no stores yet.
func NewLinker() *Linker {
	return &Linker{lastStore: make(map[int64]int64)}
}

// Link fills rec with e's selection-independent fields — PC, Word
// (address or destination value) and store link — and records e as the
// newest store to its word if it stores. It leaves the predictor's flags to
// the front end.
func (l *Linker) Link(e *cpu.Exec, rec *Rec) {
	*rec = Rec{PC: int32(e.PC)}
	if e.Inst.HasDest() {
		rec.Word = e.RdVal
	}
	switch e.Inst.Op {
	case isa.LD:
		rec.Word = e.EffAddr
		if j, ok := l.lastStore[e.EffAddr&^7]; ok {
			rec.PrevStore = LinkTo(e.Seq, j)
		}
	case isa.ST:
		rec.Word = e.EffAddr
		w := e.EffAddr &^ 7
		if j, ok := l.lastStore[w]; ok {
			rec.PrevStore = LinkTo(e.Seq, j)
		}
		l.lastStore[w] = e.Seq
	}
}

// FrontEnd is the simulator's front end: the functional oracle and the
// branch predictor fetch consults, plus the Linker.
type FrontEnd struct {
	Oracle *cpu.State
	pred   *branch.Predictor
	links  Linker
}

// New returns a front end at prog's entry.
func New(prog *program.Program) *FrontEnd {
	return &FrontEnd{
		Oracle: cpu.New(prog),
		pred:   branch.New(branch.DefaultConfig()),
		links:  Linker{lastStore: make(map[int64]int64)},
	}
}

// NewReplica returns prog's initial architectural state, which a consumer
// of recorded records advances by applying each record's effect instead of
// executing it.
func NewReplica(prog *program.Program) *cpu.State { return cpu.New(prog) }

// Step executes the next instruction and fills rec with its record. An
// oracle error (running off the program's text) ends the stream: the
// simulator's fetch stops there, and rec is untouched.
func (f *FrontEnd) Step(rec *Rec) error {
	e, err := f.Oracle.Step()
	if err != nil {
		return err
	}
	f.links.Link(&e, rec)
	// Only branches and JR carry flags; neither has an address or a
	// destination value, so Word is free for them.
	switch {
	case e.Inst.IsBranch():
		if _, correct := f.pred.PredictAndTrain(e.PC, e.Taken); !correct {
			rec.Word = FMispredict
		} else if e.Taken {
			rec.Word = FBreak
		}
	case e.Inst.Op == isa.JR:
		if f.pred.BTBLookup(e.PC) != e.NextPC {
			rec.Word = FMispredict
			f.pred.BTBInsert(e.PC, e.NextPC)
		}
	}
	return nil
}

// Trace is a recorded prefix of a program's record stream. A trace of
// span 0 is streamed: it holds no records, and its consumers step a fresh
// FrontEnd instead. Traces are immutable after recording and safe for
// concurrent readers.
type Trace struct {
	prog    *program.Program
	version string
	dec     []Dec
	recs    []Rec
	// err is the oracle error that ended the recording before its span
	// (running off the program's text), where a streamed run's fetch
	// stops too. A trace without it ends at its span or at HALT.
	err      error
	streamed bool
}

// Program returns the program the trace was recorded from.
func (t *Trace) Program() *program.Program { return t.prog }

// Version returns the fingerprint the trace was recorded under.
func (t *Trace) Version() string { return t.version }

// Decode returns the decode table of the trace's program, indexed by PC.
// Callers must not modify it.
func (t *Trace) Decode() []Dec { return t.dec }

// Records returns the number of recorded instructions.
func (t *Trace) Records() int { return len(t.recs) }

// Recs returns the recorded records, indexed by sequence number. Callers
// must not modify them.
func (t *Trace) Recs() []Rec { return t.recs }

// Err returns the oracle error that ended the recording early, or nil.
func (t *Trace) Err() error { return t.err }

// Streamed reports whether the trace holds no records because its run is
// too long to retain.
func (t *Trace) Streamed() bool { return t.streamed }

// Halted reports whether the recording ends with the program's HALT.
func (t *Trace) Halted() bool {
	return len(t.recs) > 0 && t.dec[t.recs[len(t.recs)-1].PC].flags&FHalt != 0
}

// ctxCheckMask gates how often Record polls ctx.Done(): every 4096
// instructions.
const ctxCheckMask = 1<<12 - 1

// Record steps a fresh front end over prog for span records (fewer if the
// program halts or runs off its text), tagging the trace with version, the
// fingerprint of the code that reads it. A span of 0 records nothing and
// returns a streamed trace. The decode table is built here, before any
// reader shares the trace.
func Record(ctx context.Context, prog *program.Program, span int64, version string) (*Trace, error) {
	dec := Decode(prog)
	if span <= 0 {
		return &Trace{prog: prog, version: version, dec: dec, streamed: true}, nil
	}
	fe := New(prog)
	t := &Trace{prog: prog, version: version, dec: dec, recs: make([]Rec, 0, span)}
	done := ctx.Done()
	for int64(len(t.recs)) < span && !fe.Oracle.Halted {
		if done != nil && len(t.recs)&ctxCheckMask == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		n := len(t.recs)
		t.recs = t.recs[:n+1] // within the span-sized capacity
		if err := fe.Step(&t.recs[n]); err != nil {
			// The simulator's fetch stops at an oracle error; the stored
			// error makes every consumer stop there the same way.
			t.recs = t.recs[:n]
			t.err = err
			break
		}
	}
	return t, nil
}
