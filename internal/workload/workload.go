// Package workload provides the benchmark suite: ten synthetic kernels that
// stand in for the paper's ten SPEC2000int benchmark/input combinations
// (bzip2, crafty, gap, gcc, mcf, parser, twolf, vortex, vpr.p, vpr.r).
//
// SPEC binaries and inputs are not available to this reproduction, so each
// kernel is engineered to exhibit
// the *memory-behaviour signature* the paper reports for its namesake —
// the properties the selection framework actually responds to:
//
//   - mcf: dependent pointer chasing; miss feeds the next miss's address, so
//     p-threads cannot out-run the main thread → low coverage (paper: 10%).
//   - vpr.p: addresses computed by pure register arithmetic → near-perfect
//     slices → highest coverage (paper: 82%).
//   - vpr.r: index-array graph walk → sliceable with induction unrolling.
//   - crafty: L2-resident working set → almost no L2 misses; p-threads can
//     only hurt (paper: -1%).
//   - twolf/parser: sparse computations — the address is computed long
//     before its use, so slices are short but need a large slicing scope
//     (paper: scope-sensitive).
//   - vortex: store-load pairs inside miss computations → optimization
//     (store-load pair elimination) unlocks otherwise-too-long p-threads
//     (paper: optimization's biggest winner).
//   - bzip2/gap/gcc: mixtures of sequential and data-dependent indexing
//     with moderate coverage.
//
// Every kernel is deterministic (xorshift-seeded data) and scaled by a
// multiplier so experiments can trade time for fidelity.
package workload

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"preexec/internal/program"
)

// ErrUnknown is wrapped by ByName's unknown-benchmark error so callers that
// map failures onto transport-level codes (the serve package's 404) can
// classify it with errors.Is without matching message text.
var ErrUnknown = errors.New("unknown benchmark")

// ErrDuplicate is wrapped by Register's name-collision error (serve maps it
// to 409 Conflict).
var ErrDuplicate = errors.New("already registered")

// Workload is one benchmark in the suite.
type Workload struct {
	Name string
	// Description summarizes the memory-behaviour signature.
	Description string
	// Build constructs the train-input program at the given scale
	// (scale >= 1 multiplies the iteration count).
	Build func(scale int) *program.Program
	// BuildTest constructs the paper's "test input" variant: a smaller data
	// set (for twolf and vpr.p, one that fits the L2 entirely, reproducing
	// the paper's Figure 7 static-scenario failure for those two).
	BuildTest func(scale int) *program.Program
}

var (
	regMu    sync.RWMutex
	registry []Workload
	// builtins counts registry entries installed by this package's init
	// functions (the paper's ten); they can never be unregistered.
	builtins int
)

// register installs a builtin at init time (no locking: init runs serially,
// before any other entry point can be called).
func register(w Workload) {
	registry = append(registry, w)
	builtins = len(registry)
}

// Register adds a workload to the registry at run time, making it a
// first-class benchmark for ByName and everything built on it (suite
// evaluation, sweeps, the command-line tools). Names are case-insensitive
// and must not collide with an existing entry. A nil BuildTest defaults to
// Build. Safe for concurrent use.
func Register(w Workload) error {
	if w.Name == "" {
		return fmt.Errorf("workload: Register: empty name")
	}
	if w.Build == nil {
		return fmt.Errorf("workload: Register %q: nil Build", w.Name)
	}
	if w.BuildTest == nil {
		w.BuildTest = w.Build
	}
	regMu.Lock()
	defer regMu.Unlock()
	for _, have := range registry {
		if strings.EqualFold(have.Name, w.Name) {
			return fmt.Errorf("workload: Register %q: %w", w.Name, ErrDuplicate)
		}
	}
	registry = append(registry, w)
	return nil
}

// Unregister removes a run-time-registered workload by (case-insensitive)
// name, reporting whether it was present. The ten builtins cannot be
// removed.
func Unregister(name string) bool {
	regMu.Lock()
	defer regMu.Unlock()
	for i := builtins; i < len(registry); i++ {
		if strings.EqualFold(registry[i].Name, name) {
			registry = append(registry[:i], registry[i+1:]...)
			return true
		}
	}
	return false
}

// All returns the full suite — the ten builtins plus any registered
// extensions — in alphabetical order.
func All() []Workload {
	regMu.RLock()
	out := make([]Workload, len(registry))
	copy(out, registry)
	regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the suite's benchmark names in order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Name
	}
	return names
}

// ByName finds a workload. Lookup is case-insensitive, and the error for an
// unknown name lists every valid one — it is the single name-validation
// message reused by the suite and sweep entry points.
func ByName(name string) (Workload, error) {
	regMu.RLock()
	for _, w := range registry {
		if strings.EqualFold(w.Name, name) {
			regMu.RUnlock()
			return w, nil
		}
	}
	regMu.RUnlock()
	return Workload{}, fmt.Errorf("workload: %w %q (valid: %s)",
		ErrUnknown, name, strings.Join(Names(), ", "))
}
