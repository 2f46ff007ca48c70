package preexec

import (
	"context"
	"errors"
	"testing"
	"time"

	"preexec/internal/memo"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightGroupCoalesces pins the single-flight contract of a memo that
// retains nothing (the request-coalescing layer of the serve package):
// callers that arrive while a computation is in flight share its result
// without computing, and — unlike the stage cache — nothing is memoized
// once the flight lands.
func TestFlightGroupCoalesces(t *testing.T) {
	ctx := context.Background()
	g := memo.New[string, int](memo.None)
	started := make(chan struct{})
	release := make(chan struct{})

	type outcome struct {
		v   int
		err error
	}
	results := make(chan outcome, 4)
	go func() {
		v, err := g.Do(ctx, "k", func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
		results <- outcome{v, err}
	}()
	<-started
	for i := 0; i < 3; i++ {
		go func() {
			v, err := g.Do(ctx, "k", func() (int, error) {
				return 0, errors.New("a coalesced caller computed")
			})
			results <- outcome{v, err}
		}()
	}
	waitFor(t, "3 waiters to block", func() bool { return g.Stats().Waiting == 3 })
	close(release)

	for i := 0; i < 4; i++ {
		out := <-results
		if out.err != nil {
			t.Fatalf("caller %d: %v", i, out.err)
		}
		if out.v != 42 {
			t.Fatalf("caller %d got %d, want 42", i, out.v)
		}
	}
	if st := g.Stats(); st.Runs != 1 || st.Hits != 3 {
		t.Errorf("stats = %d runs / %d hits, want 1 / 3", st.Runs, st.Hits)
	}
	if n := g.Len(); n != 0 {
		t.Errorf("%d entries held after the flight landed, want 0", n)
	}

	// No memoization: a request after the flight landed computes afresh.
	v, err := g.Do(ctx, "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("post-flight Do = (%d, %v), want a fresh computation of 7", v, err)
	}
	if st := g.Stats(); st.Runs != 2 || st.Hits != 3 {
		t.Errorf("stats = %d runs / %d hits after second computation, want 2 / 3", st.Runs, st.Hits)
	}
}

// TestFlightGroupFailureNotShared: a failed flight is returned only to its
// owner; coalesced waiters retry with their own computation instead of
// inheriting the failure (the serve contract that one client's disconnect
// cannot fail another's identical request).
func TestFlightGroupFailureNotShared(t *testing.T) {
	ctx := context.Background()
	g := memo.New[string, int](memo.None)
	started := make(chan struct{})
	release := make(chan struct{})
	boom := errors.New("boom")

	ownerErr := make(chan error, 1)
	go func() {
		_, err := g.Do(ctx, "k", func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
		ownerErr <- err
	}()
	<-started

	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		v, err := g.Do(ctx, "k", func() (int, error) { return 99, nil })
		if err != nil || v != 99 {
			t.Errorf("waiter after failed flight: (%d, %v), want (99, nil)", v, err)
		}
	}()
	waitFor(t, "the waiter to block", func() bool { return g.Stats().Waiting == 1 })
	close(release)

	if err := <-ownerErr; !errors.Is(err, boom) {
		t.Fatalf("owner error = %v, want boom", err)
	}
	<-waiterDone
}

// TestFlightGroupPanicUnwedgesKey: a panicking compute must not leak its
// in-flight entry — the panic propagates to the owner (an http.Handler
// recovers it and keeps serving), waiters retry, and the key computes
// normally afterwards.
func TestFlightGroupPanicUnwedgesKey(t *testing.T) {
	ctx := context.Background()
	g := memo.New[string, int](memo.None)
	started := make(chan struct{})
	release := make(chan struct{})

	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		defer func() {
			if recover() == nil {
				t.Error("compute's panic did not propagate to the owner")
			}
		}()
		g.Do(ctx, "k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started

	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		v, err := g.Do(ctx, "k", func() (int, error) { return 99, nil })
		if err != nil || v != 99 {
			t.Errorf("waiter after panicked flight: (%d, %v), want (99, nil)", v, err)
		}
	}()
	waitFor(t, "the waiter to block", func() bool { return g.Stats().Waiting == 1 })
	close(release)
	<-ownerDone
	<-waiterDone

	// The key is not wedged: a fresh request computes immediately.
	v, err := g.Do(ctx, "k", func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("post-panic Do = (%d, %v), want a fresh computation of 5", v, err)
	}
	if st := g.Stats(); st.Runs != 3 || st.Hits != 0 {
		t.Errorf("stats = %d runs / %d hits, want 3 / 0: every call computed", st.Runs, st.Hits)
	}
}

// TestFlightGroupComputeHoldsNoLock observes dynamically what the lockscope
// analyzer asserts statically: Do holds the memo mutex only around map
// bookkeeping, never across compute. If compute ran under the lock, a Do for
// a different key would block behind it.
func TestFlightGroupComputeHoldsNoLock(t *testing.T) {
	ctx := context.Background()
	g := memo.New[string, int](memo.None)
	started := make(chan struct{})
	release := make(chan struct{})

	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		v, err := g.Do(ctx, "slow", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
		if err != nil || v != 1 {
			t.Errorf("slow flight: (%d, %v), want (1, nil)", v, err)
		}
	}()
	<-started

	fastDone := make(chan struct{})
	go func() {
		defer close(fastDone)
		v, err := g.Do(ctx, "fast", func() (int, error) { return 2, nil })
		if err != nil || v != 2 {
			t.Errorf("fast flight: (%d, %v), want (2, nil)", v, err)
		}
	}()
	select {
	case <-fastDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Do(fast) blocked behind Do(slow)'s compute: the memo lock is held across compute")
	}
	if hits := g.Stats().Hits; hits != 0 {
		t.Errorf("hits = %d, want a fresh fast flight", hits)
	}
	close(release)
	<-ownerDone
}

// TestFlightGroupPanicReleasesLock: the panic-cleanup path re-acquires the
// memo mutex to drop the entry; it must release it again even though the
// panic is still unwinding, keeping other keys serviceable and letting
// waiters on the panicked key retry. This is the panic-safety half of the
// blocking-while-locked bug class the lockscope analyzer encodes.
func TestFlightGroupPanicReleasesLock(t *testing.T) {
	ctx := context.Background()
	g := memo.New[string, int](memo.None)
	started := make(chan struct{})
	release := make(chan struct{})

	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		defer func() {
			if recover() == nil {
				t.Error("compute's panic did not propagate to the owner")
			}
		}()
		g.Do(ctx, "k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started

	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		v, err := g.Do(ctx, "k", func() (int, error) { return 99, nil })
		if err != nil || v != 99 {
			t.Errorf("waiter after panicked flight: (%d, %v), want (99, nil)", v, err)
		}
	}()
	waitFor(t, "the waiter to block", func() bool { return g.Stats().Waiting == 1 })
	close(release)
	<-ownerDone

	// The panic cleanup ran: the mutex must be free for unrelated keys
	// immediately, even while the panicked key's waiter is still retrying.
	otherDone := make(chan struct{})
	go func() {
		defer close(otherDone)
		v, err := g.Do(ctx, "other", func() (int, error) { return 3, nil })
		if err != nil || v != 3 {
			t.Errorf("other key after panic: (%d, %v), want (3, nil)", v, err)
		}
	}()
	select {
	case <-otherDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Do(other) blocked after a panicked flight: cleanup leaked the memo lock")
	}
	<-waiterDone
}

// TestFlightGroupWaiterCancellation: a waiter whose context ends stops
// waiting with its own context error while the flight completes for its
// owner.
func TestFlightGroupWaiterCancellation(t *testing.T) {
	g := memo.New[string, int](memo.None)
	started := make(chan struct{})
	release := make(chan struct{})

	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		v, err := g.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
		if err != nil || v != 42 {
			t.Errorf("owner: (%d, %v), want (42, nil)", v, err)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		_, err := g.Do(ctx, "k", func() (int, error) { return 0, errors.New("computed") })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter error = %v, want context.Canceled", err)
		}
	}()
	waitFor(t, "the waiter to block", func() bool { return g.Stats().Waiting == 1 })
	cancel()
	<-waiterDone
	close(release)
	<-ownerDone

	if hits := g.Stats().Hits; hits != 0 {
		t.Errorf("hits = %d after cancelled wait, want 0", hits)
	}
}
