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
	return profile(ctx, p, opts, backward)
}
