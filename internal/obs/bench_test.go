package obs

import (
	"testing"
	"time"
)

// disabledOp is the disabled hot path: the nil-receiver no-op of every
// instrument plus a span from a nil Tracer.
func disabledOp() {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		tr *Tracer
	)
	c.Add(1)
	g.Set(1)
	h.Observe(time.Millisecond)
	sp := tr.StartSpan("", "", "x")
	sp.SetAttr("k", "v")
	sp.End()
}

func BenchmarkObsDisabledOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disabledOp()
	}
}

// TestAllocCeilings pins the disabled hot path at zero heap allocations: the
// package's "disabled instrumentation is free" contract.
func TestAllocCeilings(t *testing.T) {
	if got := testing.AllocsPerRun(1, disabledOp); got != 0 {
		t.Errorf("disabled instrumentation: %.0f allocs/op, ceiling 0", got)
	}
}
