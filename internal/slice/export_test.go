package slice

import (
	"preexec/internal/cpu"
	"preexec/internal/frontend"
	"preexec/internal/isa"
	"preexec/internal/program"
)

// LinkedWindow links execs, which must carry consecutive sequence numbers
// and one instruction per PC, into front-end records and returns a window
// over them at the given scope: a ring long enough to hold every record,
// with the slicing window starting at the first exec, so tests can slice
// hand-built streams.
func LinkedWindow(scope int, execs []cpu.Exec) *Window {
	n := int64(1)
	for n < int64(len(execs)) {
		n <<= 1
	}
	w := &Window{Recs: make([]frontend.Rec, n), Mask: n - 1, Scope: int64(scope)}
	if len(execs) > 0 {
		w.First = execs[0].Seq
	}
	linkInto(w, execs)
	return w
}

// linkInto links execs, which must carry consecutive sequence numbers and
// one instruction per PC, into w's records and renames them in order, as
// the profiler's forward scan does.
func linkInto(w *Window, execs []cpu.Exec) {
	for i := range execs {
		e := &execs[i]
		for e.PC >= len(w.Text) {
			w.Text = append(w.Text, isa.Inst{})
		}
		w.Text[e.PC] = e.Inst
	}
	dec := frontend.Decode(&program.Program{Insts: w.Text})
	l := frontend.NewLinker()
	for i := range execs {
		e := &execs[i]
		l.Link(e, &w.Recs[e.Seq&w.Mask])
		w.Rename(e.Seq, &dec[e.PC])
	}
}

// Cut is the per-shape cut ProfileShapes applies to a wide slice.
func Cut(sl []Inst, scope, maxLen int) []Inst {
	var buf []Inst
	return cut(&buf, sl, scope, maxLen)
}
