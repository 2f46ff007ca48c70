// Package detflow exercises the whole-program determinism analyzer: sinks
// are only reported when transitively reachable from a root, the diagnostic
// carries the discovery chain, and reachability follows function values
// handed across package boundaries and interface method calls.
package detflow

import (
	"math/rand"
	"sort"
	"time"

	"detflowdep"
)

// Root is the fixture's pinned entry point.
//
//lint:detroot fixture stand-in for the bit-reproducible API surface
func Root(keys map[string]int) []string {
	stamp()
	out := collect(keys)
	out = append(out, sortedCollect(keys)...)
	detflowdep.Run(emit)
	_ = seeded()
	_ = stampVia(wallClock{})
	return out
}

// stamp is one hop below the root: its wall-clock read must be reported with
// the full Root -> stamp chain.
func stamp() int64 {
	return time.Now().UnixNano() // want `time.Now reached from deterministic root via detflow.Root -> detflow.stamp -> time.Now`
}

// collect fixes map order into the returned slice without sorting.
func collect(keys map[string]int) []string {
	var out []string
	for k := range keys {
		out = append(out, k) // want `append to out inside map iteration .*reached from deterministic root via detflow.Root -> detflow.collect`
	}
	return out
}

// sortedCollect uses the repo's collect-then-sort idiom — exempt.
func sortedCollect(keys map[string]int) []string {
	var out []string
	for k := range keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// emit is never called in this package: it escapes as a value into
// detflowdep.Run, so only the Reference edge keeps it reachable.
func emit() {
	_ = rand.Int() // want `global math/rand.Int reached from deterministic root via detflow.Root -> detflow.emit -> global math/rand.Int`
}

// stamper is the interface stampVia calls through.
type stamper interface {
	Stamp() int64
}

// wallClock's Stamp is never called or referenced directly: only the
// Devirtualized edge of stampVia's interface call keeps it reachable.
type wallClock struct{}

func (wallClock) Stamp() int64 {
	return time.Now().UnixNano() // want `time.Now reached from deterministic root via detflow.Root -> detflow.stampVia -> \(detflow.wallClock\).Stamp -> time.Now`
}

// stampVia reaches its sink only through an interface method call.
func stampVia(s stamper) int64 {
	return s.Stamp()
}

// seeded draws from an explicitly seeded source — allowed.
func seeded() int {
	r := rand.New(rand.NewSource(1))
	return r.Int()
}

// orphan is unreachable from any root: its clock read is the local
// determinism analyzer's business, not detflow's.
func orphan() time.Time {
	return time.Now()
}
