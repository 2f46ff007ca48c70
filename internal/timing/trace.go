package timing

import (
	"context"

	"preexec/internal/frontend"
	"preexec/internal/program"
)

// The simulator's front end and its recording live in internal/frontend,
// which the slice-tree profiler reads too. The backend (replay.go) consumes
// front-end records without caring where they come from: RunContext steps
// a frontend.FrontEnd inside fetch, and RecordTrace runs it ahead once so
// Replay can re-time every selection and every p-thread mode against the
// same recorded stream, with Stats bit-identical to RunContext's.

// TraceVersion is the simulator fingerprint baked into every recorded trace.
// Replay refuses a trace recorded under a different version, and the stage
// caches key trace entries by it, so any change to the timing core's
// semantics invalidates recorded traces cleanly: bump the version whenever
// the front end (internal/frontend), the backend (replay.go), memsys.go, or
// the predictor change behaviour.
const TraceVersion = "rt3-2026-10"

// Trace is a recorded base-run event stream: the complete front-end input of
// any timing simulation of its program whose TraceSpan the recording covers
// (any machine, all modes, any selection). A run too long to retain (over
// maxTraceInsts) yields a streamed trace, which holds no records: Replay
// steps its front end afresh, as RunContext does.
type Trace = frontend.Trace

// maxTraceInsts bounds recorded runs: beyond this the trace's memory
// footprint (16 bytes/record) is unreasonable for a long-lived stage cache,
// so RecordTrace returns a streamed trace instead. 4M instructions caps a
// trace near 64MB and comfortably covers the evaluation windows the suite
// and the service sweep (tens of thousands to ~1M instructions).
const maxTraceInsts = int64(4) << 20

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
	e := int64(1)
	for e < int64(cfg.ROB+8*cfg.Width) {
		e <<= 1
	}
	return e
}

// TraceSpan returns the number of records a run under cfg needs from its
// trace: the run's instruction total plus the maximum fetch-ahead
// (traceExtent), or 0 for a run over maxTraceInsts, whose trace is
// streamed. RecordTrace records exactly this many records (fewer if the
// program halts or runs off its text), and nothing else of cfg reaches the
// recording, so a trace serves every machine whose span it covers: the
// span, with the program and TraceVersion, is a trace's whole identity.
func TraceSpan(cfg Config) int64 {
	cfg = cfg.withDefaults()
	total := runTotal(cfg)
	if total <= 0 || total > maxTraceInsts {
		return 0
	}
	return total + traceExtent(cfg)
}

// RecordTrace records the front-end stream a simulation of prog under cfg
// (any mode) consumes: it steps the front end ahead of any backend for
// TraceSpan(cfg) records, the run's instruction total plus the maximum
// fetch-ahead. The front end depends on the program alone, so cfg only
// sizes the recording, and the trace serves every machine and mode with
// the same or a smaller span. A run over maxTraceInsts (the unbounded
// MaxInsts default included) records nothing and returns a streamed trace,
// so every run length takes the same RecordTrace-then-Replay path.
func RecordTrace(ctx context.Context, prog *program.Program, cfg Config) (*Trace, error) {
	return frontend.Record(ctx, prog, TraceSpan(cfg), TraceVersion)
}
