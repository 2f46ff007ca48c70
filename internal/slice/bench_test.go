package slice

import (
	"testing"

	"preexec/internal/workload"
)

// profileOp sets up one whole-run functional profile (trace + caches +
// backward slicing + slice-tree construction) of 50k instructions of the
// miss-heavy vpr.r and returns the call. BenchmarkProfile times it, and
// TestAllocCeilings catches the slicer falling back to per-miss allocation.
func profileOp(tb testing.TB) func() {
	w, err := workload.ByName("vpr.r")
	if err != nil {
		tb.Fatal(err)
	}
	p := w.Build(1)
	return func() {
		if _, err := ProfileWhole(p, ProfileOptions{MaxInsts: 50_000}); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkProfile measures the functional profiler on a miss-heavy
// workload.
func BenchmarkProfile(b *testing.B) {
	call := profileOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

// TestAllocCeilings bounds the profile's heap allocations per call: the count
// measured when the ceiling was set, plus 30% and 32 allocations of
// headroom.
func TestAllocCeilings(t *testing.T) {
	const ceiling = 727
	got := testing.AllocsPerRun(1, profileOp(t))
	if got > ceiling {
		t.Errorf("profile: %.0f allocs/op, ceiling %d", got, ceiling)
	}
	t.Logf("profile: %.0f allocs/op, ceiling %d", got, ceiling)
}
