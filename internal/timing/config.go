// Package timing implements the paper's detailed performance model (§4.1):
// a parametrizable dynamically scheduled SMT pipeline with register renaming,
// reservation stations, a store queue with forwarding, a hybrid branch
// predictor, an event-driven two-level data-memory hierarchy with bandwidth
// contention and MSHRs, and the run-time functions of pre-execution — three
// p-thread contexts, launch-at-rename, bursty injection (8 instructions once
// every 8 cycles per context), and p-thread loads that prefetch into the L2
// only.
//
// The simulator is execution-driven on the correct path (a functional oracle
// feeds fetch); branch mispredictions stall fetch until the branch resolves
// plus a redirect penalty. Wrong-path instructions and wrong-path p-thread
// launches are not simulated — the one deliberate divergence from the paper,
// whose own selection model also ignores wrong-path triggers (§4.3).
//
// Performance invariant: the one backend (replay.go), fed by the streamed or
// recorded front end (internal/frontend), is heavily optimized — slot
// rings, event-driven issue scheduling, idle-cycle fast-forward — but
// optimizations must preserve bit-for-bit identical Stats. The frozen
// pre-optimization core in refsim_test.go and the equivalence tests in
// equiv_test.go and synth_equiv_test.go enforce this; an intentional model
// change updates that frozen copy in the same commit. The root package's
// TestAllocCeilings bounds the allocations per run of the BenchmarkSim*
// micro-benchmarks.
package timing

// Mode selects what the simulated p-threads are allowed to do. The
// diagnostic modes implement the paper's validation methodology (§4.3).
type Mode int

// Simulation modes.
const (
	// ModeBase runs the unassisted main thread (no p-threads).
	ModeBase Mode = iota
	// ModeNormal runs full pre-execution.
	ModeNormal
	// ModeOverheadExecute runs p-threads that execute normally but never
	// access the data cache: all cost, no prefetch effect ("execute").
	ModeOverheadExecute
	// ModeOverheadSequence injects p-thread instructions that consume
	// sequencing bandwidth and are immediately discarded: exactly the cost
	// the selection framework models ("sequence").
	ModeOverheadSequence
	// ModeLatencyOnly runs p-threads that are not charged for sequencing
	// bandwidth: all benefit, no cost.
	ModeLatencyOnly
)

func (m Mode) String() string {
	switch m {
	case ModeBase:
		return "base"
	case ModeNormal:
		return "pre-exec"
	case ModeOverheadExecute:
		return "overhead-execute"
	case ModeOverheadSequence:
		return "overhead-sequence"
	case ModeLatencyOnly:
		return "latency-only"
	default:
		return "unknown"
	}
}

// Config parametrizes the pipeline and memory system. DefaultConfig matches
// the paper's base machine.
type Config struct {
	Width         int // sequencing (fetch/rename/issue/retire) width
	FrontEndDepth int // fetch-to-rename latency in cycles
	ROB           int // maximum instructions in flight
	RS            int // reservation stations (shared by all threads)
	StoreQueue    int // store-queue entries

	// Memory hierarchy (latencies in cycles).
	L1DLat        int
	L2Lat         int
	MemLat        int
	AgenLat       int // address generation before any memory access
	ForwardLat    int // store-to-load forwarding latency
	MSHRs         int // simultaneously outstanding misses
	BacksideBusCy int // backside (L1<->L2) bus occupancy per line
	MemBusCy      int // memory bus occupancy per line

	// Pre-execution runtime.
	PtContexts int // additional thread contexts for p-threads
	PtBurst    int // instructions injected per burst (every PtBurst cycles)
	// NoRSThrottle disables the ICOUNT-style injection throttle that keeps
	// p-thread bodies from monopolizing the shared reservation stations.
	// Exists for the ablation experiment; leaving it on reproduces the
	// starvation pathology the throttle prevents.
	NoRSThrottle bool

	// Front end.
	RedirectPenalty int // extra cycles after branch resolution to refetch

	// Run control. The run retires WarmInsts instructions of warm-up (cache
	// and predictor training, no statistics) followed by MaxInsts measured
	// instructions — the paper's sampling methodology (§4.1) scaled down.
	WarmInsts int64
	MaxInsts  int64 // measured main-thread instructions
	Mode      Mode
}

// DefaultConfig returns the paper's base configuration: 8-wide, 14-stage
// pipeline (5-cycle front end), 128 in-flight, 80 reservation stations,
// 2-cycle 16KB L1D, 6-cycle 256KB L2, 70-cycle memory, 32 MSHRs, 32B
// backside bus at core frequency and 32B memory bus at quarter frequency
// (2 and 8 cycles per 64B line respectively), 3 p-thread contexts with
// 8-instruction bursts.
func DefaultConfig() Config {
	return Config{
		Width:           8,
		FrontEndDepth:   5,
		ROB:             128,
		RS:              80,
		StoreQueue:      64,
		L1DLat:          2,
		L2Lat:           6,
		MemLat:          70,
		AgenLat:         1,
		ForwardLat:      2,
		MSHRs:           32,
		BacksideBusCy:   2,
		MemBusCy:        8,
		PtContexts:      3,
		PtBurst:         8,
		RedirectPenalty: 9, // 14-stage pipeline minus the 5-cycle front end
		MaxInsts:        1 << 62,
		Mode:            ModeBase,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Width <= 0 {
		c.Width = d.Width
	}
	if c.FrontEndDepth <= 0 {
		c.FrontEndDepth = d.FrontEndDepth
	}
	if c.ROB <= 0 {
		c.ROB = d.ROB
	}
	if c.RS <= 0 {
		c.RS = d.RS
	}
	if c.StoreQueue <= 0 {
		c.StoreQueue = d.StoreQueue
	}
	if c.L1DLat <= 0 {
		c.L1DLat = d.L1DLat
	}
	if c.L2Lat <= 0 {
		c.L2Lat = d.L2Lat
	}
	if c.MemLat <= 0 {
		c.MemLat = d.MemLat
	}
	if c.AgenLat <= 0 {
		c.AgenLat = d.AgenLat
	}
	if c.ForwardLat <= 0 {
		c.ForwardLat = d.ForwardLat
	}
	if c.MSHRs <= 0 {
		c.MSHRs = d.MSHRs
	}
	if c.BacksideBusCy <= 0 {
		c.BacksideBusCy = d.BacksideBusCy
	}
	if c.MemBusCy <= 0 {
		c.MemBusCy = d.MemBusCy
	}
	if c.PtContexts <= 0 {
		c.PtContexts = d.PtContexts
	}
	if c.PtBurst <= 0 {
		c.PtBurst = d.PtBurst
	}
	if c.RedirectPenalty <= 0 {
		c.RedirectPenalty = d.RedirectPenalty
	}
	if c.MaxInsts <= 0 {
		c.MaxInsts = d.MaxInsts
	}
	return c
}

// Stats is the outcome of a timing run.
type Stats struct {
	Cycles  int64
	Retired int64 // main-thread instructions retired
	IPC     float64

	// Pre-execution diagnostics (paper Table 2).
	Launches int64 // dynamic p-threads launched
	Drops    int64 // launch requests dropped (no free context)
	PtInsts  int64 // p-thread instructions injected
	AvgPtLen float64

	// Memory behaviour.
	Loads             int64
	L2Misses          int64 // main-thread demand misses that reached memory
	MissesCovered     int64 // would-be misses turned into (partial or full) hits by p-threads
	MissesFullCovered int64 // covered with the entire latency hidden

	// Front end.
	BrLookups   int64
	BrMispred   int64
	FetchStalls int64
}

// OverheadFrac is p-thread instructions per retired main-thread instruction
// (the "instruction overhead" tick in the paper's figures).
func (s Stats) OverheadFrac() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.PtInsts) / float64(s.Retired)
}
