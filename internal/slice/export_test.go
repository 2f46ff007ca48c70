package slice

import (
	"context"

	"preexec/internal/program"
	"preexec/internal/trace"
)

// ProfileWithBackward is ProfileContext with the given backward slicer in
// place of a Slicer, so external tests can run the same profiling loop over
// a reference slicer.
func ProfileWithBackward(ctx context.Context, p *program.Program, opts ProfileOptions, backward func(*trace.Tracker, *trace.Entry) []Inst) ([]Region, error) {
	opts.fill()
	regs, err := profile(ctx, p, []ProfileOptions{opts}, backward)
	if err != nil {
		return nil, err
	}
	return regs[0], nil
}

// Cut is the per-shape cut ProfileShapes applies to a wide slice.
func Cut(sl []Inst, scope, maxLen int) []Inst {
	var buf []Inst
	return cut(&buf, sl, scope, maxLen)
}
