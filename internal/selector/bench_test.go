package selector

import (
	"testing"

	"preexec/internal/slice"
	"preexec/internal/workload"
)

// selectOp profiles 100k instructions of gcc and returns one selection
// (candidate scoring + iterative overlap correction + merging) of the
// forest. BenchmarkSelectForest times it, and TestAllocCeilings catches
// selection falling back to rescoring a candidate per leaf and iteration.
func selectOp(tb testing.TB) func() {
	w, err := workload.ByName("gcc")
	if err != nil {
		tb.Fatal(err)
	}
	forest, err := slice.ProfileWhole(w.Build(1), slice.ProfileOptions{MaxInsts: 100_000})
	if err != nil {
		tb.Fatal(err)
	}
	opts := paperOpts()
	opts.Merge = true
	return func() { SelectForest(forest, opts) }
}

// BenchmarkSelectForest measures selection on a profiled forest.
func BenchmarkSelectForest(b *testing.B) {
	call := selectOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

// TestAllocCeilings bounds selection's heap allocations per call: the count
// measured when the ceiling was set, plus 30% and 32 allocations of
// headroom.
func TestAllocCeilings(t *testing.T) {
	const ceiling = 772
	got := testing.AllocsPerRun(1, selectOp(t))
	if got > ceiling {
		t.Errorf("select: %.0f allocs/op, ceiling %d", got, ceiling)
	}
	t.Logf("select: %.0f allocs/op, ceiling %d", got, ceiling)
}
