package serve

import (
	"testing"

	"preexec/internal/fleet"
)

// takeAll checks that successive takes return the wanted (cell, backend)
// pairs.
func takeAll(t *testing.T, d *dispatch, want ...[2]int) {
	t.Helper()
	for k, w := range want {
		if cell, b := d.take(); cell != w[0] || b != w[1] {
			t.Fatalf("take %d = cell %d on backend %d, want cell %d on backend %d", k, cell, b, w[0], w[1])
		}
	}
}

// TestDispatchTakesOwnQueueFront: with home cells on both backends, each
// take serves the least-claimed backend from the front of its own queue,
// the lower index on ties.
func TestDispatchTakesOwnQueueFront(t *testing.T) {
	d := newDispatch(fleet.New([]string{"a", "b"}, fleet.Config{}), []int{0, 1, 0, 1})
	takeAll(t, d, [2]int{0, 0}, [2]int{1, 1}, [2]int{2, 0}, [2]int{3, 1})
}

// TestDispatchTiePrefersQueuedHome: on equal load the backend with home
// cells queued serves, so an idle backend without any does not steal while
// the home backend could take the cell itself.
func TestDispatchTiePrefersQueuedHome(t *testing.T) {
	d := newDispatch(fleet.New([]string{"a", "b"}, fleet.Config{}), []int{1, 1})
	takeAll(t, d, [2]int{0, 1}, [2]int{1, 0})
}

// TestDispatchStealsLongestQueueTail: a least-loaded backend with an empty
// queue steals the last cell of the longest live queue.
func TestDispatchStealsLongestQueueTail(t *testing.T) {
	d := newDispatch(fleet.New([]string{"a", "b", "c"}, fleet.Config{}), []int{0, 0, 1, 1, 1})
	takeAll(t, d, [2]int{0, 0}, [2]int{2, 1}, [2]int{4, 2})
}

// TestDispatchEjectedQueueDrainsFirst: the cells of an ejected home backend
// go out before any other, still assigned to it, so fleet.Do fails them
// over.
func TestDispatchEjectedQueueDrainsFirst(t *testing.T) {
	pool := fleet.New([]string{"a", "b"}, fleet.Config{EjectAfter: 1})
	pool.Failure(0)
	d := newDispatch(pool, []int{1, 0, 0})
	takeAll(t, d, [2]int{1, 0}, [2]int{2, 0}, [2]int{0, 1})
}

// TestDispatchStartedReleasesClaim: a taken cell counts against its
// backend until started, and a second started for it releases nothing.
func TestDispatchStartedReleasesClaim(t *testing.T) {
	d := newDispatch(fleet.New([]string{"a", "b"}, fleet.Config{}), []int{0, 0, 0, 0})
	takeAll(t, d, [2]int{0, 0}, [2]int{3, 1})
	d.started(3)
	// Backend 1 is idle again, so it steals the next tail cell.
	takeAll(t, d, [2]int{2, 1})
	d.started(3)
	// Backends 0 and 1 each hold one claim: backend 0 has home cells queued.
	takeAll(t, d, [2]int{1, 0})
}
