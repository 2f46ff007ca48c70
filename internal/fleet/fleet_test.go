package fleet

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// fastCfg keeps retry tests quick: microsecond backoff, tight budgets.
func fastCfg() Config {
	return Config{
		BackoffBase: 10 * time.Microsecond,
		BackoffMax:  50 * time.Microsecond,
	}
}

func TestRingOrderCoversEveryBackendOnce(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	r := newRing(names, 64)
	for _, key := range []string{"", "x", "cell-1", "cell-2", "a-very-long-stage-key"} {
		order := r.order(key)
		if len(order) != len(names) {
			t.Fatalf("order(%q) has %d entries, want %d", key, len(order), len(names))
		}
		seen := make(map[int]bool)
		for _, b := range order {
			if b < 0 || b >= len(names) || seen[b] {
				t.Fatalf("order(%q) = %v is not a permutation", key, order)
			}
			seen[b] = true
		}
	}
}

// TestRingRoutingIsListOrderInsensitive pins the name-based hashing: the
// same key routes to the same named backend no matter how the fleet list was
// ordered, so cache locality survives a reordered -backends flag.
func TestRingRoutingIsListOrderInsensitive(t *testing.T) {
	fwd := []string{"node1:8321", "node2:8321", "node3:8321"}
	rev := []string{"node3:8321", "node2:8321", "node1:8321"}
	rf := newRing(fwd, 64)
	rr := newRing(rev, 64)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("stage-key-%d", i)
		if fwd[rf.order(key)[0]] != rev[rr.order(key)[0]] {
			t.Fatalf("key %q homes to %q forward but %q reversed",
				key, fwd[rf.order(key)[0]], rev[rr.order(key)[0]])
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	names := []string{"a", "b", "c"}
	r := newRing(names, 64)
	counts := make([]int, len(names))
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.order(fmt.Sprintf("key-%d", i))[0]]++
	}
	for b, n := range counts {
		// Loose balance bound: consistent hashing with 64 virtual nodes
		// should not starve or overload any backend by more than ~3x.
		if n < keys/len(names)/3 || n > keys*3/len(names) {
			t.Fatalf("backend %d got %d of %d keys; distribution %v too skewed", b, n, keys, counts)
		}
	}
}

func TestPoolEjectionAndReadmission(t *testing.T) {
	p := New([]string{"a", "b"}, Config{EjectAfter: 3})
	if !p.Live(0) || !p.Live(1) {
		t.Fatal("fresh backends must be live")
	}
	// Two failures, then a success: counter resets, still live.
	p.Failure(0)
	p.Failure(0)
	p.Success(0, p.FailSeq(0))
	if ej := p.Failure(0); ej || !p.Live(0) {
		t.Fatal("success must reset the consecutive-failure counter")
	}
	// Three consecutive failures eject exactly once.
	if ej := p.Failure(0); ej {
		t.Fatal("ejected after 2 consecutive failures, want 3")
	}
	if ej := p.Failure(0); !ej {
		t.Fatal("not ejected after 3 consecutive failures")
	}
	if p.Live(0) {
		t.Fatal("backend still live after ejection")
	}
	p.Readmit(0)
	if !p.Live(0) {
		t.Fatal("backend not live after re-admission")
	}
	snap := p.Snapshot()
	if snap[0].Ejections != 1 || snap[0].Readmissions != 1 || snap[0].ConsecutiveFailures != 0 {
		t.Fatalf("snapshot %+v, want 1 ejection, 1 readmission, counter reset", snap[0])
	}
	if snap[1].Failures != 0 || !snap[1].Live {
		t.Fatalf("untouched backend snapshot %+v changed", snap[1])
	}
}

// TestPoolLateSuccessKeepsLaterFailures pins the failure-sequence guard: a
// success whose attempt started before failures recorded since — a slow
// first request to a backend that then died — must not reset the
// consecutive-failure count, so the next failure still ejects.
func TestPoolLateSuccessKeepsLaterFailures(t *testing.T) {
	p := New([]string{"a"}, Config{EjectAfter: 3})
	slow := p.FailSeq(0) // the slow attempt starts
	p.Failure(0)         // two later attempts fail while it runs
	p.Failure(0)
	p.Success(0, slow) // then the slow attempt completes
	if snap := p.Snapshot()[0]; snap.ConsecutiveFailures != 2 || snap.Successes != 1 {
		t.Fatalf("snapshot %+v, want the success counted and 2 consecutive failures kept", snap)
	}
	if ej := p.Failure(0); !ej {
		t.Fatal("third failure after a stale success did not eject")
	}

	// A success that started after the last failure does reset the count.
	q := New([]string{"a"}, Config{EjectAfter: 3})
	q.Failure(0)
	q.Failure(0)
	q.Success(0, q.FailSeq(0))
	if ej := q.Failure(0); ej || q.Snapshot()[0].ConsecutiveFailures != 1 {
		t.Fatalf("fresh success did not reset the counter: %+v", q.Snapshot()[0])
	}
}

func TestDoFirstAttemptSuccess(t *testing.T) {
	p := New([]string{"a", "b"}, fastCfg())
	v, st, err := Do(context.Background(), p, "k", func(ctx context.Context, b int) (string, error) {
		return "ok", nil
	})
	if err != nil || v != "ok" {
		t.Fatalf("Do = %q, %v", v, err)
	}
	if st.Attempts != 1 || st.Retries != 0 || st.FailedOver {
		t.Fatalf("stats %+v, want one clean attempt", st)
	}
	if r, f := p.Stats(); r != 0 || f != 0 {
		t.Fatalf("pool counters retries=%d failovers=%d, want 0", r, f)
	}
}

// TestDoFailsOverAfterEjection drives the home backend to ejection and
// requires the cell to complete on the failover backend within the default
// budget, with the pool counters recording the retries and the failover.
func TestDoFailsOverAfterEjection(t *testing.T) {
	cfg := fastCfg() // EjectAfter 3, RetryBudget 4 by default
	p := New([]string{"a", "b"}, cfg)
	home := p.Order("k")[0]
	calls := 0
	v, st, err := Do(context.Background(), p, "k", func(ctx context.Context, b int) (int, error) {
		calls++
		if b == home {
			return 0, errors.New("injected")
		}
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("Do = %d, %v", v, err)
	}
	if calls != 4 || st.Attempts != 4 || st.Retries != 3 || !st.FailedOver {
		t.Fatalf("stats %+v after %d calls, want eject-after-3 then failover", st, calls)
	}
	if st.Backend == home {
		t.Fatal("served by the ejected home backend")
	}
	if p.Live(home) {
		t.Fatal("home backend still live after 3 consecutive failures")
	}
	if r, f := p.Stats(); r != 3 || f != 1 {
		t.Fatalf("pool counters retries=%d failovers=%d, want 3, 1", r, f)
	}
}

// TestPoolInFlightFollowsAttempts checks the per-backend in-flight count
// Do keeps: each attempt counts against the backend it runs on, the home
// while it fails and the failover backend once the home is ejected, and
// every count is back at 0 when Do returns.
func TestPoolInFlightFollowsAttempts(t *testing.T) {
	p := New([]string{"a", "b"}, fastCfg())
	home := p.Order("k")[0]
	_, st, err := Do(context.Background(), p, "k", func(ctx context.Context, b int) (int, error) {
		for i, s := range p.Snapshot() {
			want := int64(0)
			if i == b {
				want = 1
			}
			if p.InFlight(i) != want || s.InFlight != want {
				t.Errorf("attempt on backend %d: backend %d in flight %d (snapshot %d), want %d", b, i, p.InFlight(i), s.InFlight, want)
			}
		}
		if b == home {
			return 0, errors.New("injected")
		}
		return 1, nil
	})
	if err != nil || !st.FailedOver {
		t.Fatalf("Do: stats %+v, err %v; want a failover", st, err)
	}
	for i, s := range p.Snapshot() {
		if p.InFlight(i) != 0 || s.InFlight != 0 {
			t.Errorf("backend %d in flight %d (snapshot %d) after Do, want 0", i, p.InFlight(i), s.InFlight)
		}
	}
}

func TestDoAllBackendsDeadIsErrNoBackends(t *testing.T) {
	cfg := fastCfg()
	cfg.EjectAfter = 1
	cfg.RetryBudget = 5
	p := New([]string{"a", "b"}, cfg)
	_, _, err := Do(context.Background(), p, "k", func(ctx context.Context, b int) (int, error) {
		return 0, errors.New("down")
	})
	if !errors.Is(err, ErrNoBackends) {
		t.Fatalf("err = %v, want ErrNoBackends", err)
	}
	// Once ejected everywhere, further calls fail fast without attempts.
	_, st, err := Do(context.Background(), p, "k2", func(ctx context.Context, b int) (int, error) {
		t.Fatal("attempt against a fully-ejected pool")
		return 0, nil
	})
	if !errors.Is(err, ErrNoBackends) || st.Attempts != 0 {
		t.Fatalf("err = %v, attempts = %d, want immediate ErrNoBackends", err, st.Attempts)
	}
}

func TestDoBudgetSpentIsNotErrNoBackends(t *testing.T) {
	cfg := fastCfg()
	cfg.EjectAfter = 100 // stays live, keeps failing
	cfg.RetryBudget = 3
	p := New([]string{"a"}, cfg)
	_, st, err := Do(context.Background(), p, "k", func(ctx context.Context, b int) (int, error) {
		return 0, errors.New("flaky")
	})
	if err == nil || errors.Is(err, ErrNoBackends) {
		t.Fatalf("err = %v, want a budget-spent error distinct from ErrNoBackends", err)
	}
	if st.Attempts != 3 {
		t.Fatalf("attempts = %d, want the full budget of 3", st.Attempts)
	}
}

func TestDoPermanentErrorReturnsImmediately(t *testing.T) {
	p := New([]string{"a", "b"}, fastCfg())
	cause := errors.New("cell rejected")
	calls := 0
	_, st, err := Do(context.Background(), p, "k", func(ctx context.Context, b int) (int, error) {
		calls++
		return 0, Permanent(cause)
	})
	if !IsPermanent(err) || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the permanent cause", err)
	}
	if calls != 1 || st.Attempts != 1 {
		t.Fatalf("%d calls for a permanent error, want 1", calls)
	}
	// A permanent error is the request's own fault, not the backend's.
	if snap := p.Snapshot(); snap[p.Order("k")[0]].Failures != 0 {
		t.Fatalf("permanent error charged the backend: %+v", snap)
	}
}

func TestDoHonorsCancellation(t *testing.T) {
	p := New([]string{"a"}, fastCfg())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, _, err := Do(ctx, p, "k", func(ctx context.Context, b int) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation is not the backend's failure.
	if snap := p.Snapshot(); snap[0].Failures != 0 {
		t.Fatalf("cancellation charged the backend: %+v", snap)
	}
}

func TestProbeOnceReadmitsAndRecordsLoad(t *testing.T) {
	cfg := fastCfg()
	cfg.EjectAfter = 2
	p := New([]string{"a", "b"}, cfg)
	p.Failure(0)
	p.Failure(0)
	if p.Live(0) {
		t.Fatal("backend 0 should be ejected")
	}
	p.ProbeOnce(context.Background(), func(ctx context.Context, b int) (int, error) {
		return 7 + b, nil
	})
	if !p.Live(0) {
		t.Fatal("successful probe did not re-admit backend 0")
	}
	snap := p.Snapshot()
	if snap[0].Load != 7 || snap[1].Load != 8 {
		t.Fatalf("loads %d, %d, want 7, 8", snap[0].Load, snap[1].Load)
	}
	// Failing probes count toward ejection like failed cells.
	p.ProbeOnce(context.Background(), func(ctx context.Context, b int) (int, error) {
		return 0, errors.New("unreachable")
	})
	p.ProbeOnce(context.Background(), func(ctx context.Context, b int) (int, error) {
		return 0, errors.New("unreachable")
	})
	if p.Live(0) || p.Live(1) {
		t.Fatal("two failed probes with EjectAfter=2 must eject both backends")
	}
}

// TestDoPrefersIdleFailover pins the failover choice: with the home backend
// ejected, the least-loaded live candidate serves the cell.
func TestDoPrefersIdleFailover(t *testing.T) {
	p := New([]string{"a", "b", "c"}, Config{EjectAfter: 1, BackoffBase: time.Microsecond})
	order := p.Order("k")
	p.Failure(order[0]) // eject the home backend
	p.SetLoad(order[1], 9)
	p.SetLoad(order[2], 2)
	_, st, err := Do(context.Background(), p, "k", func(ctx context.Context, b int) (int, error) {
		return b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Backend != order[2] {
		t.Fatalf("served by backend %d (load 9 candidate %d, load 2 candidate %d), want the idle one",
			st.Backend, order[1], order[2])
	}
}
