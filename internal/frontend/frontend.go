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
// recording. A Trace keeps its records compressed, about 3 bytes each, and
// a Reader is the one way they leave it: each consumer decodes them in
// order into a ring sized to the records it looks back at, so a run of any
// length is read the same way.
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
	"encoding/binary"
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
// record j (-1 for none) as the distance seq-j, 0 meaning no link; a reader
// decodes a nonzero distance d as record seq-d.
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

// Trace is a recorded prefix of a program's record stream: its decode
// table, and its records compressed into chunks of chunkSize bytes (see
// encoder), which a Reader decodes one at a time in sequence order. Traces
// are immutable after recording and safe for concurrent readers.
type Trace struct {
	prog    *program.Program
	version string
	dec     []Dec
	chunks  [][]byte
	n       int
	err     error // see Err; a trace without it ends at its span or at HALT
	halted  bool
}

// Program returns the program the trace was recorded from.
func (t *Trace) Program() *program.Program { return t.prog }

// Version returns the fingerprint the trace was recorded under.
func (t *Trace) Version() string { return t.version }

// Decode returns the decode table of the trace's program, indexed by PC.
// Callers must not modify it.
func (t *Trace) Decode() []Dec { return t.dec }

// Records returns the number of recorded instructions.
func (t *Trace) Records() int { return t.n }

// Err returns the oracle error that ended the recording before its span
// (running off the program's text, where the simulator's fetch stops too),
// or nil.
func (t *Trace) Err() error { return t.err }

// Halted reports whether the recording ends with the program's HALT.
func (t *Trace) Halted() bool { return t.halted }

// ctxCheckMask gates how often Record polls ctx.Done(): every 4096
// instructions.
const ctxCheckMask = 1<<12 - 1

// Record runs the simulator's front end over prog for span records (fewer
// if the program halts or runs off its text): the functional oracle, the
// branch predictor fetch consults, and a Linker. It tags the trace with
// version, the fingerprint of the code that reads it. A span at or past
// the program's end records the whole run; the trace holds about 3 bytes
// per record while it records and after. The decode table is built here,
// before any reader shares the trace.
func Record(ctx context.Context, prog *program.Program, span int64, version string) (*Trace, error) {
	t := &Trace{prog: prog, version: version, dec: Decode(prog)}
	oracle, pred, links := cpu.New(prog), branch.New(branch.DefaultConfig()), NewLinker()
	enc := encoder{pc: -1, last: make([]int64, len(prog.Insts))}
	var rec Rec
	done := ctx.Done()
	for int64(t.n) < span && !oracle.Halted {
		if done != nil && t.n&ctxCheckMask == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		e, err := oracle.Step()
		if err != nil {
			// The simulator's fetch stops at an oracle error; the stored
			// error makes every consumer stop there the same way.
			t.err = err
			break
		}
		links.Link(&e, &rec)
		// Only branches and JR carry flags; neither has an address or a
		// destination value, so Word is free for them.
		switch {
		case e.Inst.IsBranch():
			if _, correct := pred.PredictAndTrain(e.PC, e.Taken); !correct {
				rec.Word = FMispredict
			} else if e.Taken {
				rec.Word = FBreak
			}
		case e.Inst.Op == isa.JR:
			if pred.BTBLookup(e.PC) != e.NextPC {
				rec.Word = FMispredict
				pred.BTBInsert(e.PC, e.NextPC)
			}
		}
		enc.put(&rec, &t.dec[rec.PC])
		t.n++
	}
	// Copy the last chunk to its length: the trace retains no slack.
	if n := len(enc.chunks); n > 0 {
		enc.chunks[n-1] = append([]byte(nil), enc.chunks[n-1]...)
	}
	t.chunks, t.halted = enc.chunks, oracle.Halted
	return t, nil
}

// chunkSize is the byte capacity of one chunk of compressed records.
const chunkSize = 64 << 10

// maxRecBytes bounds one compressed record. A chunk with less room left is
// closed, so no record straddles two chunks.
const maxRecBytes = 1 + binary.MaxVarintLen32 + binary.MaxVarintLen64 + binary.MaxVarintLen32

// Header bits of a compressed record. The bits FMispredict and FBreak carry
// the dynamic flags of a branch or a JR, whose Word holds nothing else.
const (
	hSeq  = 1 << iota // the PC is the previous record's plus one: no PC jump follows
	hWord             // a word delta follows
	hLink             // a store link follows
)

// encoder compresses records: a header byte, then varints for the PC's
// jump from the previous record's PC, unless it is sequential (87-96% of
// records); the word's delta from the word of the PC's previous record,
// unless it is the same; and the store link, if any.
type encoder struct {
	chunks [][]byte
	pc     int32   // the previous record's PC
	last   []int64 // per PC, the word of its previous record
}

// put appends rec, whose decode-table entry is d.
func (e *encoder) put(rec *Rec, d *Dec) {
	n := len(e.chunks)
	if n == 0 || cap(e.chunks[n-1])-len(e.chunks[n-1]) < maxRecBytes {
		e.chunks = append(e.chunks, make([]byte, 0, chunkSize))
		n++
	}
	b := e.chunks[n-1]
	at := len(b)
	b = append(b, 0)
	var h byte
	if rec.PC == e.pc+1 {
		h |= hSeq
	} else {
		b = binary.AppendVarint(b, int64(rec.PC-e.pc))
	}
	e.pc = rec.PC
	w := rec.Word
	if d.dyn != 0 {
		f := w & int64(d.dyn)
		h |= byte(f)
		w ^= f
	}
	if delta := w - e.last[rec.PC]; delta != 0 {
		h |= hWord
		b = binary.AppendVarint(b, delta)
		e.last[rec.PC] = w
	}
	if rec.PrevStore != 0 {
		h |= hLink
		b = binary.AppendUvarint(b, uint64(uint32(rec.PrevStore)))
	}
	b[at] = h
	e.chunks[n-1] = b
}

// Reader reads a trace's records in sequence order, each once. It is the
// only way records leave a trace: a consumer decodes each into a ring of
// its own, sized to the records it looks back at.
type Reader struct {
	chunks [][]byte // the chunks after buf
	buf    []byte   // the unread part of the current chunk
	pc     int32
	last   []int64
}

// Reader returns a reader at the trace's first record.
func (t *Trace) Reader() Reader {
	return Reader{chunks: t.chunks, pc: -1, last: make([]int64, len(t.dec))}
}

// Next decodes the next record into rec and reports whether there was
// one; at the end of the trace it leaves rec untouched.
func (r *Reader) Next(rec *Rec) bool {
	b := r.buf
	if len(b) == 0 {
		if len(r.chunks) == 0 {
			return false
		}
		b, r.chunks = r.chunks[0], r.chunks[1:]
	}
	h := b[0]
	b = b[1:]
	pc := r.pc + 1
	if h&hSeq == 0 {
		v, n := binary.Uvarint(b) // binary.Varint's zigzag, which it does not inline
		pc = r.pc + int32(int64(v>>1)^-int64(v&1))
		b = b[n:]
	}
	r.pc = pc
	w := r.last[pc]
	if h&hWord != 0 {
		v, n := binary.Uvarint(b)
		w += int64(v>>1) ^ -int64(v&1)
		r.last[pc] = w
		b = b[n:]
	}
	var link int32
	if h&hLink != 0 {
		v, n := binary.Uvarint(b)
		link = int32(v)
		b = b[n:]
	}
	r.buf = b
	*rec = Rec{Word: w | int64(h&(FMispredict|FBreak)), PrevStore: link, PC: pc}
	return true
}
