package timing

import (
	"context"
	"testing"
	"time"

	"preexec/internal/frontend"
	"preexec/internal/workload"
)

// edge31 is the first dynamic index an int32 cannot hold. Narrowing keeps
// comparisons and differences between nearby indices intact unless they
// straddle this edge, so the tests below straddle it.
const edge31 = int64(1) << 31

// TestDynamicIndicesAre64Bit drives the producer-reference, record-link,
// and retirement-watermark helpers and the ready queue with sequence
// numbers and retired counts on both sides of 2^31.
func TestDynamicIndicesAre64Bit(t *testing.T) {
	for _, seq := range []int64{edge31 - 1, edge31, edge31 + 5, 1<<40 + 3} {
		ref := mainRef(seq)
		if ref >= none {
			t.Errorf("mainRef(%d) = %d collides with slot ids or none", seq, ref)
		}
		if got := mainSeq(ref); got != seq {
			t.Errorf("mainSeq(mainRef(%d)) = %d", seq, got)
		}
	}

	seq, prod := edge31+5, edge31-2
	if got := seq - int64(frontend.LinkTo(seq, prod)); got != prod {
		t.Errorf("link %d -> %d decodes to %d", seq, prod, got)
	}
	if d := frontend.LinkTo(seq, 3); d != 0 {
		t.Errorf("linkTo over %d records = %d, want the dropped link 0", seq-3, d)
	}
	if d := frontend.LinkTo(seq, -1); d != 0 {
		t.Errorf("frontend.LinkTo(none) = %d, want 0", d)
	}

	var r replaySim
	r.stats.Retired = edge31 + 2
	if r.inFlight(edge31-1) || r.inFlight(edge31+1) || !r.inFlight(edge31+2) || !r.inFlight(edge31+3) {
		t.Errorf("watermark at Retired=%d misplaced", r.stats.Retired)
	}

	q := newReadyQ(64)
	q.push(edge31+1, 2)
	q.push(edge31, 1)
	q.push(edge31-1, 0)
	for want := int32(0); want < 3; want++ {
		if got := q.pop(); got != want {
			t.Errorf("ready queue pop %d = slot %d, want %d", want, got, want)
		}
	}
}

// TestStreamedRunPast32Bits runs the whole machine with every dynamic
// counter (oracle sequence, fetch position, window order, retired count)
// starting just below 2^31, so the run crosses it, and requires the same
// timing as a run from zero.
func TestStreamedRunPast32Bits(t *testing.T) {
	w, err := workload.ByName("vpr.p")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(1)
	pts := selectFor(t, prog, 0, 20_000)
	cfg := DefaultConfig()
	cfg.MaxInsts = 20_000
	cfg.Mode = ModeNormal
	want, err := Run(prog, pts, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg = cfg.withDefaults()
	r := newReplay(prog, nil, pts, cfg)
	const start = edge31 - 10_000
	r.fe.Oracle.Count = start
	r.pos, r.winSeq, r.stats.Retired = start, start, start
	// The livelock guard scales with the offset run's total, so a narrowed
	// index that wedges the machine is cut off by the deadline instead.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, err := r.run(ctx, start+runTotal(cfg))
	if err != nil {
		t.Fatal(err)
	}
	got.Retired -= start
	got.IPC = float64(got.Retired) / float64(got.Cycles)
	if got != want {
		t.Errorf("run offset by %d diverges\n got: %+v\nwant: %+v", start, got, want)
	}
}
