package timing

import (
	"context"
	"math"

	"preexec/internal/branch"
	"preexec/internal/cpu"
	"preexec/internal/isa"
	"preexec/internal/program"
)

// This file is the simulator's front end and its recording.
//
// The front end's entire output stream is selection-independent: fetch is
// execution-driven on the correct path, so the dynamic instruction
// sequence, the effective addresses, and the branch predictor's verdicts
// depend only on the program and the fetch (= program) order in which the
// predictor trains — never on p-threads, which occupy their own SMT contexts
// and are invisible to fetch. The backend (replay.go) therefore consumes
// front-end records without caring where they come from: RunContext steps
// the front end inside fetch, and RecordTrace runs it ahead once so Replay
// can re-time every selection and every p-thread mode against the same
// recorded stream, with Stats bit-identical to RunContext's.
//
// P-thread launches read the architectural register file and memory image at
// the launch point, which moves with timing. A streamed run reads the
// oracle, which sits at the fetch frontier; to reconstruct that state from a
// recording, each record also carries its architectural effect (destination
// value, or store value), which Replay applies to a replica in fetch order.

// TraceVersion is the simulator fingerprint baked into every recorded trace.
// Replay refuses a trace recorded under a different version, and the stage
// caches key trace entries by it, so any change to the timing core's
// semantics invalidates recorded traces cleanly: bump the version whenever
// the front end (trace.go), the backend (replay.go), memsys.go, or the
// predictor change behaviour.
const TraceVersion = "rt1-2026-08"

// traceRec flags.
const (
	tfStore      = 1 << iota // ST: val is the stored value, effAddr the address
	tfHasDest                // writes rd (rd may be the zero register)
	tfBrLookup               // conditional branch: counts a predictor lookup
	tfMispredict             // mispredicted branch or JR: becomes the fetch blocker
	tfBreak                  // taken control: fetch stops after this instruction
	tfHalt                   // HALT: fetch is done after this instruction
)

// traceRec is one fetched instruction with everything the backend needs
// precomputed: the renamer's producer links, the scheduler's class and
// latency, the predictor's verdict, the architectural effect, and the
// backward same-word store link that replaces a store-forwarding map.
//
// prod holds, per source operand, the backward distance to its producer —
// the most recent earlier record writing that register — and prevStore the
// distance to the most recent earlier store to the same word; 0 is no link
// (see linkTo). The rename table is maintained in program order, which is
// exactly fetch order, so its whole evolution is a property of the stream
// and is computed here; the runtime "producer already retired" case is
// recovered in the backend by comparing the link against the retirement
// watermark, because retirement is strictly program-ordered too.
type traceRec struct {
	effAddr   int64
	val       int64 // rd value (tfHasDest) or stored value (tfStore)
	prod      [2]int32
	prevStore int32
	pc        int32
	rd        uint8 // destination register; 0xff = none
	class     uint8 // isa.Class
	latAdd    uint8 // non-memory completion latency (Mul: 3, else 1)
	flags     uint8
}

// linkTo encodes the backward link from record seq to the earlier record j
// (-1 for none) as the distance seq-j, 0 meaning no link. Only in-flight
// targets matter to the backend, and the in-flight window spans a few
// hundred records, so a target farther back than an int32 distance has
// retired long before seq renames: dropping that link is exact. Sequence
// numbers themselves never narrow.
func linkTo(seq, j int64) int32 {
	if j < 0 || seq-j > math.MaxInt32 {
		return 0
	}
	return int32(seq - j)
}

// linkBack decodes a linkTo distance from record seq: the linked record's
// sequence number, or -1 for no link.
func linkBack(seq int64, d int32) int64 {
	if d == 0 {
		return -1
	}
	return seq - int64(d)
}

// noSrc marks an absent destination register in traceRec.rd.
const noSrc = 0xff

// Trace is a recorded base-run event stream: the complete front-end input of
// any timing simulation of its program whose TraceSpan the recording covers
// (any machine, all modes, any selection). A run too long to retain (over
// maxTraceInsts) yields a streamed trace, which holds no records: Replay
// steps its front end afresh, as RunContext does. Traces are immutable after
// recording and safe for concurrent Replay calls.
type Trace struct {
	prog    *program.Program
	version string
	recs    []traceRec
	// truncated marks a trace ended by an oracle step error, where a
	// streamed run's fetch stops too; replay stops there the same way. A
	// non-truncated trace ends at the recorded extent or at HALT.
	truncated bool
	// streamed marks a trace of a run over maxTraceInsts: no records, and
	// Replay streams the front end instead.
	streamed bool
}

// Program returns the program the trace was recorded from.
func (t *Trace) Program() *program.Program { return t.prog }

// Version returns the simulator fingerprint the trace was recorded under.
func (t *Trace) Version() string { return t.version }

// Records returns the number of recorded instructions.
func (t *Trace) Records() int { return len(t.recs) }

// Bytes approximates the trace's memory footprint, for cache sizing.
func (t *Trace) Bytes() int64 { return int64(len(t.recs)) * 40 }

// maxTraceInsts bounds recorded runs: beyond this the trace's memory
// footprint (40 bytes/record) is unreasonable for a long-lived stage cache,
// so RecordTrace returns a streamed trace instead. 4M instructions caps a
// trace near 160MB and comfortably covers the evaluation windows the suite
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

// frontEnd is the simulator's front end: the functional oracle and the
// branch predictor fetch consults, plus the rename table (regProd) and the
// per-word last-store table over sequence numbers that link each record to
// its producers and to the previous store to its word.
type frontEnd struct {
	oracle    *cpu.State
	pred      *branch.Predictor
	regProd   [isa.NumRegs]int64 // most recent writer of each register; -1 none
	lastStore map[int64]int64    // word address -> most recent store to it
}

func newFrontEnd(prog *program.Program) *frontEnd {
	f := &frontEnd{
		oracle:    cpu.New(prog),
		pred:      branch.New(branch.DefaultConfig()),
		lastStore: make(map[int64]int64),
	}
	for i := range f.regProd {
		f.regProd[i] = -1
	}
	return f
}

// step executes the next instruction and fills rec with its record. An
// oracle error (running off the program's text) ends the stream: the
// simulator's fetch stops there, and rec is untouched.
func (f *frontEnd) step(rec *traceRec) error {
	e, err := f.oracle.Step()
	if err != nil {
		return err
	}
	*rec = traceRec{
		effAddr: e.EffAddr,
		pc:      int32(e.PC),
		rd:      noSrc,
		class:   uint8(isa.ClassOf(e.Inst.Op)),
		latAdd:  uint8(isa.Latency(e.Inst.Op)),
	}
	srcs, ns := e.Inst.Sources()
	for i := 0; i < ns; i++ {
		if srcs[i] != isa.Zero {
			rec.prod[i] = linkTo(e.Seq, f.regProd[srcs[i]])
		}
	}
	if e.Inst.HasDest() {
		rec.rd = uint8(e.Inst.Rd)
		rec.flags |= tfHasDest
		rec.val = e.RdVal
		f.regProd[e.Inst.Rd] = e.Seq
	}
	switch isa.Class(rec.class) {
	case isa.ClassLoad:
		if j, ok := f.lastStore[e.EffAddr&^7]; ok {
			rec.prevStore = linkTo(e.Seq, j)
		}
	case isa.ClassStore:
		w := e.EffAddr &^ 7
		if j, ok := f.lastStore[w]; ok {
			rec.prevStore = linkTo(e.Seq, j)
		}
		f.lastStore[w] = e.Seq
		rec.flags |= tfStore
		// ST reads no destination; val carries the stored value so a
		// replay can maintain its memory replica in fetch order.
		rec.val = f.oracle.Regs[e.Inst.Rs2]
	case isa.ClassBranch:
		rec.flags |= tfBrLookup
		if _, correct := f.pred.PredictAndTrain(e.PC, e.Taken); !correct {
			rec.flags |= tfMispredict
		} else if e.Taken {
			rec.flags |= tfBreak
		}
	case isa.ClassJump:
		if e.Inst.Op == isa.JR {
			if f.pred.BTBLookup(e.PC) != e.NextPC {
				rec.flags |= tfMispredict
				f.pred.BTBInsert(e.PC, e.NextPC)
			}
		}
		rec.flags |= tfBreak
	case isa.ClassHalt:
		rec.flags |= tfHalt
	}
	return nil
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
	extent := TraceSpan(cfg)
	if extent == 0 {
		return &Trace{prog: prog, version: TraceVersion, streamed: true}, nil
	}

	fe := newFrontEnd(prog)
	t := &Trace{
		prog:    prog,
		version: TraceVersion,
		recs:    make([]traceRec, 0, extent),
	}
	done := ctx.Done()
	for int64(len(t.recs)) < extent && !fe.oracle.Halted {
		if done != nil && len(t.recs)&ctxCheckMask == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		n := len(t.recs)
		t.recs = t.recs[:n+1] // within the extent-sized capacity
		if fe.step(&t.recs[n]) != nil {
			// The simulator's fetch stops at an oracle error; the
			// truncation mark makes replay do the same.
			t.recs = t.recs[:n]
			t.truncated = true
			break
		}
	}
	return t, nil
}
