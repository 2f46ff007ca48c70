// Package preexec is the public entry point to the pre-execution
// thread-selection framework of Roth & Sohi, "Speculative Data-Driven
// Multithreading" tool flow (conf_micro_RothS02, §4.1):
//
//	functional cache simulation  ->  slice trees
//	slice trees + parameters     ->  static p-threads
//	program + p-threads          ->  timing simulation
//
// An Engine, built from functional options over the decomposed
// machine/selection/ablation configuration, runs the pipeline end to end:
//
//	eng := preexec.New(preexec.WithMachine(preexec.DefaultMachine()))
//	rep, err := eng.Evaluate(ctx, prog)
//
// Every entry point takes a context.Context that cancels mid-simulation,
// and the Suite runner evaluates many workloads concurrently across a
// bounded worker pool with deterministic result ordering.
//
// The stages are the in-repo reference implementations that reproduce the
// paper's results: the slice-tree profiler, the aggregate-advantage
// selector and the trace-replay timing simulator. Every timing run has one
// path: the engine records the program's front-end trace once per program
// and timing.TraceSpan (the run length plus the machine's rounded
// fetch-ahead), memoized in a StageCache, and replays it for the base run
// and for every selection, diagnostic mode and machine point of that span;
// the profiler reads the same trace. Two hooks see the stages without
// changing their results: a StageObserver (WithStageObserver) is called
// around every stage execution, and a StageGate (WithStageGate) admits
// every trace recording, timing run and profiling pass before it starts.
package preexec

import (
	"preexec/internal/program"
	"preexec/internal/pthread"
	"preexec/internal/selector"
	"preexec/internal/slice"
	"preexec/internal/timing"
	"preexec/internal/workload"
)

// Program is an executable PRX program (aliased from the internal substrate
// so external callers can hold and pass one).
type Program = program.Program

// PThread is one selected static p-thread.
type PThread = pthread.PThread

// Stats is the outcome of one timing-simulation run.
type Stats = timing.Stats

// Prediction is the selection model's forecast of a p-thread set's dynamic
// behaviour (the "Predict" block of the paper's Table 2).
type Prediction = selector.Prediction

// SelectionResult is a completed selection: the chosen p-threads and the
// model's predictions.
type SelectionResult = selector.Result

// Forest is a profiled set of slice trees (the output of the functional
// profiling stage, and the on-disk interchange format between tsim -profile
// and tselect).
type Forest = slice.Forest

// ProfileRegion is one profiled dynamic region with its slice-tree forest.
type ProfileRegion = slice.Region

// ProfileOptions configures the functional profiling stage.
type ProfileOptions = slice.ProfileOptions

// SelectorOptions configures the selection stage (advantage parameters,
// merging, iteration bounds).
type SelectorOptions = selector.Options

// TimingConfig parametrizes the detailed timing simulator.
type TimingConfig = timing.Config

// Trace is a recorded base-run event trace: the complete front-end input of
// any timing simulation of its program under its recorded configuration
// family (all modes, any selection), and of a profile of the same prefix.
type Trace = timing.Trace

// Mode selects what simulated p-threads are allowed to do; the diagnostic
// modes implement the paper's validation methodology (§4.3).
type Mode = timing.Mode

// Simulation modes.
const (
	ModeBase             = timing.ModeBase
	ModeNormal           = timing.ModeNormal
	ModeOverheadExecute  = timing.ModeOverheadExecute
	ModeOverheadSequence = timing.ModeOverheadSequence
	ModeLatencyOnly      = timing.ModeLatencyOnly
)

// Workload is one benchmark of the synthetic suite standing in for the
// paper's ten SPEC2000int benchmark/input pairs.
type Workload = workload.Workload

// Workloads returns the full benchmark suite in the paper's order.
func Workloads() []Workload { return workload.All() }

// WorkloadNames returns the suite's benchmark names in order.
func WorkloadNames() []string { return workload.Names() }

// ErrUnknownWorkload is wrapped by the unknown-benchmark errors of
// WorkloadByName and everything built on it (EvaluateSuite, SweepBenches),
// so callers — notably the serve package's HTTP error mapping — can
// classify lookup failures with errors.Is.
var ErrUnknownWorkload = workload.ErrUnknown

// ErrDuplicateWorkload is wrapped by RegisterWorkload's name-collision
// error (serve maps it to 409 Conflict).
var ErrDuplicateWorkload = workload.ErrDuplicate

// WorkloadByName finds a benchmark by name. Lookup is case-insensitive and
// the error for an unknown name — which wraps ErrUnknownWorkload — lists
// every valid one.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// RegisterWorkload adds a workload to the global registry, making it a
// first-class benchmark alongside the ten builtins: WorkloadByName,
// EvaluateSuite, SweepBenches, and the command-line tools all accept its
// name afterwards. Names are case-insensitive and must be unique; a nil
// BuildTest defaults to Build. The synth package builds registrable
// workloads from parameterized scenario specs and .prx sources.
func RegisterWorkload(w Workload) error { return workload.Register(w) }

// UnregisterWorkload removes a previously registered workload by name,
// reporting whether it was present. The ten builtins cannot be removed.
func UnregisterWorkload(name string) bool { return workload.Unregister(name) }

// PredictIPC converts a selection's predicted cycle savings into an IPC
// forecast for a run of insts instructions on a width-wide machine with the
// given unassisted IPC.
func PredictIPC(pred Prediction, insts int64, baseIPC, width float64) float64 {
	return selector.PredictIPC(pred, insts, baseIPC, width)
}

// LoadForest reads a slice-tree file written by Forest.Save (tsim -profile).
func LoadForest(path string) (*Forest, error) { return slice.Load(path) }

// LoadPThreads reads a p-thread file written by SavePThreads (tselect -o).
func LoadPThreads(path string) ([]*PThread, error) { return pthread.Load(path) }

// SavePThreads writes p-threads for later simulation (tsim -pthreads).
func SavePThreads(path string, pts []*PThread) error { return pthread.Save(path, pts) }
