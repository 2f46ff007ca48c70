package timing

import (
	"context"
	"math"

	"preexec/internal/frontend"
	"preexec/internal/program"
)

// The simulator's front end and its recording live in internal/frontend,
// which the slice-tree profiler reads too. RecordTrace runs the front end
// ahead once, and Replay re-times any selection in any p-thread mode
// against the recorded stream, decoding its records into the backend's
// record ring (replay.go). RunContext is the two in sequence.

// TraceVersion is the simulator fingerprint baked into every recorded trace.
// Replay refuses a trace recorded under a different version, and the stage
// caches key trace entries by it, so any change to the timing core's
// semantics invalidates recorded traces cleanly: bump the version whenever
// the front end (internal/frontend), the backend (replay.go), memsys.go, or
// the predictor change behaviour.
const TraceVersion = "rt4-2026-10"

// Trace is a recorded base-run event stream: the complete front-end input of
// any timing simulation of its program whose TraceSpan the recording covers
// (any machine, all modes, any selection). A run of any length records: a
// trace holds about 3 bytes per instruction (see frontend.Record).
type Trace = frontend.Trace

// traceExtent returns how many instructions past the measured total the
// recording must extend. The machine's fetch runs
// ahead of retirement by at most the ROB plus the front-end queue (under
// 3xWidth entries) plus one retire bundle of overshoot; 8xWidth leaves that
// bound comfortable headroom. Replay fails loudly — it never silently stalls
// — if a trace turns out too short (see replay.go), so an undersized extent
// cannot produce wrong numbers, only an error the equivalence suite catches.
//
// The extent is rounded up to a power of two so that nearby machines need
// the same recording: with the default 128-entry ROB, every width from 1 to
// 16 needs 256 records past the total.
func traceExtent(cfg Config) int64 {
	return int64(ceilPow2(1, cfg.ROB+8*cfg.Width))
}

// TraceSpan returns the number of records a run under cfg needs from its
// trace: the run's instruction total plus the maximum fetch-ahead
// (traceExtent), saturating at math.MaxInt64 rather than overflowing. A
// run with the unbounded MaxInsts default spans past any program's end, so
// its trace records the whole run. RecordTrace records exactly this many
// records (fewer if the program halts or runs off its text), and nothing
// else of cfg reaches the recording, so a trace serves every machine whose
// span it covers: the span, with the program and TraceVersion, is a
// trace's whole identity.
func TraceSpan(cfg Config) int64 {
	cfg = cfg.withDefaults()
	total, extent := runTotal(cfg), traceExtent(cfg)
	if total > math.MaxInt64-extent {
		return math.MaxInt64
	}
	return total + extent
}

// RecordTrace records the front-end stream a simulation of prog under cfg
// (any mode) consumes: it steps the front end ahead of any backend for
// TraceSpan(cfg) records, the run's instruction total plus the maximum
// fetch-ahead. The front end depends on the program alone, so cfg only
// sizes the recording, and the trace serves every machine and mode with
// the same or a smaller span.
func RecordTrace(ctx context.Context, prog *program.Program, cfg Config) (*Trace, error) {
	return frontend.Record(ctx, prog, TraceSpan(cfg), TraceVersion)
}
