package frontend

import (
	"context"
	"testing"
	"unsafe"

	"preexec/internal/cpu"
	"preexec/internal/isa"
	"preexec/internal/program"
	"preexec/internal/workload"
)

// link links execs, which carry sequence numbers 0, 1, ..., into records.
func link(execs ...cpu.Exec) []Rec {
	l := NewLinker()
	recs := make([]Rec, len(execs))
	for i := range execs {
		l.Link(&execs[i], &recs[i])
	}
	return recs
}

// rename runs a Renamer over one execution of each of insts, in order, and
// returns each one's register producers.
func rename(insts ...isa.Inst) [][2]int64 {
	dec := Decode(&program.Program{Insts: insts})
	var r Renamer
	prods := make([][2]int64, len(insts))
	for seq := range insts {
		prods[seq] = r.Link(int64(seq), &dec[seq])
	}
	return prods
}

func exec(seq int64, in isa.Inst, addr int64) cpu.Exec {
	return cpu.Exec{Seq: seq, PC: int(seq), Inst: in, EffAddr: addr}
}

func TestRegisterProducers(t *testing.T) {
	prods := rename(
		isa.Inst{Op: isa.LI, Rd: 1},
		isa.Inst{Op: isa.LI, Rd: 2},
		isa.Inst{Op: isa.ADD, Rd: 3, Rs1: 1, Rs2: 2},
	)
	if p := prods[2]; p != [2]int64{0, 1} {
		t.Errorf("producers = %v, want [0 1]", p)
	}
}

func TestLatestWriterWins(t *testing.T) {
	prods := rename(
		isa.Inst{Op: isa.LI, Rd: 1},
		isa.Inst{Op: isa.LI, Rd: 1},
		isa.Inst{Op: isa.MOV, Rd: 2, Rs1: 1},
	)
	if p := prods[2][0]; p != 1 {
		t.Errorf("producer = %d, want 1 (latest writer)", p)
	}
}

func TestR0HasNoProducer(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.LI, Rd: 0}, // write to R0: discarded
		{Op: isa.ADDI, Rd: 1, Rs1: 0},
	}
	if p := rename(insts...)[1]; p != [2]int64{-1, -1} {
		t.Errorf("R0 producers = %v, want none", p)
	}
	recs := link(exec(0, insts[0], 0), exec(1, insts[1], 0))
	d := Decode(&program.Program{Insts: insts})[recs[0].PC]
	if d.Flags(&recs[0])&FHasDest != 0 || d.Rd != NoDest {
		t.Errorf("write to R0 recorded as a destination: %+v, decoded %+v", recs[0], d)
	}
}

func TestNoSelfDependence(t *testing.T) {
	prods := rename(
		isa.Inst{Op: isa.LI, Rd: 1},
		isa.Inst{Op: isa.ADDI, Rd: 1, Rs1: 1, Imm: 1},
	)
	if p := prods[1][0]; p != 0 {
		t.Errorf("producer = %d, want 0 (previous writer, not self)", p)
	}
}

func TestMemoryDependence(t *testing.T) {
	recs := link(
		exec(0, isa.Inst{Op: isa.ST, Rs1: 1, Rs2: 2}, 0x100),
		exec(1, isa.Inst{Op: isa.LD, Rd: 3, Rs1: 1}, 0x100),
		exec(2, isa.Inst{Op: isa.LD, Rd: 3, Rs1: 1}, 0x108), // other word
		exec(3, isa.Inst{Op: isa.ST, Rs1: 1, Rs2: 2}, 0x200),
		exec(4, isa.Inst{Op: isa.LD, Rd: 3, Rs1: 1}, 0x204), // same word
		exec(5, isa.Inst{Op: isa.ST, Rs1: 1, Rs2: 2}, 0x200),
	)
	for _, c := range []struct {
		seq, want int64
	}{
		{1, 0},
		{2, -1}, // different address: no dependence
		{4, 3},  // same word, different byte offset: still a dependence
		{5, 3},  // a store links to the previous store to its word
	} {
		p := int64(-1)
		if d := recs[c.seq].PrevStore; d != 0 {
			p = c.seq - int64(d)
		}
		if p != c.want {
			t.Errorf("record %d: store link = %d, want %d", c.seq, p, c.want)
		}
	}
}

func TestProducerOutsideScopeStillReported(t *testing.T) {
	// The renamer reports the true producer however far back it is; a
	// consumer with a bounded window (the slicer's scope, the backend's
	// in-flight window) treats farther producers as live-ins.
	insts := []isa.Inst{{Op: isa.LI, Rd: 1}}
	for seq := 1; seq < 3000; seq++ {
		insts = append(insts, isa.Inst{Op: isa.NOP})
	}
	insts = append(insts, isa.Inst{Op: isa.MOV, Rd: 2, Rs1: 1})
	if p := rename(insts...)[3000][0]; p != 0 {
		t.Errorf("producer = %d, want 0", p)
	}
}

// TestRenamerReset pins Reset to a table with no writers.
func TestRenamerReset(t *testing.T) {
	dec := Decode(&program.Program{Insts: []isa.Inst{
		{Op: isa.LI, Rd: 1},
		{Op: isa.MOV, Rd: 2, Rs1: 1},
	}})
	var r Renamer
	r.Link(0, &dec[0])
	r.Reset()
	if p := r.Link(1, &dec[1]); p != [2]int64{-1, -1} {
		t.Errorf("producers after Reset = %v, want none", p)
	}
}

// TestRecordMatchesStreamedFrontEnd pins the recording to the front end it
// runs ahead: the records equal a fresh front end's, step for step, and a
// span of 0 records nothing.
func TestRecordMatchesStreamedFrontEnd(t *testing.T) {
	w, err := workload.ByName("vpr.p")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(1)
	tr, err := Record(context.Background(), p, 20_000, "v")
	if err != nil {
		t.Fatal(err)
	}
	if cap(tr.Recs()) != 20_000 {
		t.Errorf("recording of span 20000 has capacity %d: it must hold its span and no more", cap(tr.Recs()))
	}
	if tr.Records() != 20_000 || tr.Err() != nil || tr.Halted() || tr.Streamed() || tr.Version() != "v" {
		t.Fatalf("recording: %d records, err %v, halted %v, streamed %v, version %q",
			tr.Records(), tr.Err(), tr.Halted(), tr.Streamed(), tr.Version())
	}
	fe := New(p)
	var rec Rec
	for i, want := range tr.Recs() {
		if err := fe.Step(&rec); err != nil {
			t.Fatal(err)
		}
		if rec != want {
			t.Fatalf("record %d: recorded %+v, streamed %+v", i, want, rec)
		}
	}
	st, err := Record(context.Background(), p, 0, "v")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Streamed() || st.Records() != 0 || st.Program() != p {
		t.Errorf("span 0: streamed %v with %d records", st.Streamed(), st.Records())
	}
}

// TestRecLayout pins the record at 16 bytes: traces are most of a sweep's
// retained memory, so a field added to Rec costs every cached program.
// Whatever is fixed by the PC belongs in Dec, and whatever follows from the
// PC stream (register producers) in the consumers' Renamer.
func TestRecLayout(t *testing.T) {
	if n := unsafe.Sizeof(Rec{}); n != 16 {
		t.Errorf("Rec is %d bytes, want 16", n)
	}
}

// TestDecodeFlags pins Dec.Flags to the front end's verdicts: static flags
// from the decode table, a branch's and a JR's dynamic flags from the
// record, and nothing read from the Word of an instruction whose Word is an
// address or a value.
func TestDecodeFlags(t *testing.T) {
	p := program.NewBuilder("flags").
		Li(1, int64(FMispredict|FBreak|FHalt)). // a value whose bits look like flags
		Li(2, 0x40).
		St(1, 2, 0).
		Ld(3, 2, 0).
		Beq(0, 0, "over"). // always taken
		Nop().
		Label("over").
		Jal(31, "fn").
		Halt().
		Label("fn").
		Jr(31).
		MustBuild()
	tr, err := Record(context.Background(), p, 100, "v")
	if err != nil {
		t.Fatal(err)
	}
	dec := tr.Decode()
	var got []uint8
	for i := range tr.Recs() {
		rec := &tr.Recs()[i]
		got = append(got, dec[rec.PC].Flags(rec))
	}
	// The first taken BEQ and the first JR mispredict: the predictor and the
	// BTB start cold.
	want := []uint8{
		FHasDest, FHasDest, FStore, FHasDest,
		FBrLookup | FMispredict,
		FHasDest | FBreak,
		FBreak | FMispredict,
		FHalt,
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d (pc %d): flags %06b, want %06b", i, tr.Recs()[i].PC, got[i], want[i])
		}
	}
	if !tr.Halted() {
		t.Error("recording that ends at HALT does not report Halted")
	}
	if d := dec[2]; d.Rs2 != 1 || d.Rd != NoDest || d.Src != [2]uint8{2, 1} {
		t.Errorf("store decoded as %+v, want base and data registers 2 and 1 and no destination", d)
	}
	if d := dec[4]; d.Src != [2]uint8{NoDest, NoDest} {
		t.Errorf("beq r0, r0 decoded as %+v, want no sources", d)
	}
}
