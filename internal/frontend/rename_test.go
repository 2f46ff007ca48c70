package frontend_test

import (
	"context"
	"testing"

	"preexec/internal/cpu"
	"preexec/internal/frontend"
	"preexec/internal/isa"
	"preexec/internal/program"
	"preexec/internal/workload"
	"preexec/synth"
)

// TestRenamerMatchesOracle is the producer-link differential: over a
// recording of every built-in workload and every synth.Zoo scenario, a
// Renamer run over the records from the first one must name, per source
// operand, exactly the producers of an independent rename table kept over
// the oracle's own execution (isa.Inst.Sources and HasDest). The streams
// cover stores' data registers, R0 sources and producers as old as the
// first instruction; a hand-built call loop adds JAL and JR, which no
// workload uses.
func TestRenamerMatchesOracle(t *testing.T) {
	span := int64(40_000)
	if testing.Short() {
		span = 10_000
	}
	type named struct {
		name string
		p    *program.Program
	}
	// A loop calling a function that stores its argument, reloads it
	// through R0-based addressing and returns through the link register.
	calls := program.NewBuilder("calls").
		Li(1, 0).
		Li(2, 0x1000).
		Label("loop").
		Jal(31, "fn").
		Addi(1, 1, 1).
		Add(4, 0, 1).
		J("loop").
		Label("fn").
		St(1, 2, 0).
		Ld(3, 0, 0x1000).
		Add(3, 3, 31).
		St(3, 2, 8).
		Jr(31).
		MustBuild()
	progs := []named{{"calls", calls}}
	for _, w := range workload.All() {
		progs = append(progs, named{w.Name, w.Build(1)})
	}
	for _, z := range synth.Zoo() {
		p, err := synth.Generate(z)
		if err != nil {
			t.Fatalf("zoo %s: %v", z.Name, err)
		}
		progs = append(progs, named{z.Name, p})
	}
	for _, pr := range progs {
		t.Run(pr.name, func(t *testing.T) {
			tr, err := frontend.Record(context.Background(), pr.p, span, "v")
			if err != nil {
				t.Fatal(err)
			}
			if int64(tr.Records()) != span {
				t.Fatalf("recorded %d of %d records (err %v)", tr.Records(), span, tr.Err())
			}
			dec := tr.Decode()
			var ren frontend.Renamer
			oracle := cpu.New(pr.p)
			var last [isa.NumRegs]int64
			for i := range last {
				last[i] = -1
			}
			rd := tr.Reader()
			for seq, rec := 0, (frontend.Rec{}); rd.Next(&rec); seq++ {
				e, err := oracle.Step()
				if err != nil {
					t.Fatalf("oracle at %d: %v", seq, err)
				}
				if e.PC != int(rec.PC) {
					t.Fatalf("record %d: pc %d, oracle pc %d", seq, rec.PC, e.PC)
				}
				want := [2]int64{-1, -1}
				srcs, ns := e.Inst.Sources()
				for i, r := range srcs[:ns] {
					if r != isa.Zero {
						want[i] = last[r]
					}
				}
				if e.Inst.HasDest() {
					last[e.Inst.Rd] = e.Seq
				}
				if got := ren.Link(int64(seq), &dec[rec.PC]); got != want {
					t.Fatalf("record %d (pc %d, %v): producers %v, oracle's rename table %v", seq, rec.PC, e.Inst, got, want)
				}
			}
		})
	}
}
