package timing

import (
	"context"
	"fmt"
	"math/bits"

	"preexec/internal/cpu"
	"preexec/internal/frontend"
	"preexec/internal/isa"
	"preexec/internal/program"
	"preexec/internal/pthread"
)

// This file is the simulator's backend: the fetch, rename, schedule,
// issue, complete and retire stages of the SMT pipeline. Its front-end
// records (internal/frontend) come from a Trace recorded ahead of time,
// which fetch decodes one record at a time, so one base-run recording
// re-times any selection in any mode. The Stats equal the frozen reference
// core's (refsim_test.go), pinned by equiv_test.go, replay_equiv_test.go
// and the synth corpus differentials in synth_equiv_test.go.
//
// The hot path is built around three ideas, none of which changes Stats:
//
//  1. Zero steady-state allocation. Main-thread instructions live in a ring
//     of slots indexed by dynamic sequence number; fetch decodes their
//     front-end records into a ring of the same size. No free list and no
//     reference counts: every reference to a main-thread slot dies by the
//     time it retires (the waiter chain drains at issue, producer links
//     resolve against issued or retired producers, the ROB entry leaves at
//     retire), and the rings span the maximum fetch-ahead, so a slot cannot
//     be overwritten while reachable. Only p-thread slots, whose lifetime is
//     not program-ordered, are reference-counted in an arena recycled
//     through a free list. The front-end queue and ROB are rings, and
//     launches reuse per-run scratch.
//  2. Event-driven scheduling. A slot waiting on an unissued producer parks
//     on that producer's waiter list; once all its producers have issued,
//     their completion times fold into its ready time and it waits in a
//     timing wheel until it matures into the ready queue, a winSeq-indexed
//     bitmap ring whose ascending-bit order is oldest-first issue. Producer
//     links are the front end's precomputed record links, resolved against
//     the strictly program-ordered retirement watermark; store-to-load
//     forwarding walks the backward same-word store links the same way.
//     Reservation-station occupancy is a counter.
//  3. Idle-cycle fast-forward. When a cycle performs no work, the next cycle
//     at which any stage could act is computed from the in-flight timestamps
//     and the clock jumps there directly — the common case in the
//     miss-dominated regime the paper evaluates, where the whole machine
//     sits behind a ~100-cycle memory access. All state is timestamp-based,
//     so skipped cycles are observationally identical to ticked ones (the
//     one per-cycle statistic, FetchStalls, is accounted for explicitly).
//
// Dynamic indices (sequence numbers, window order, the retired count) are
// int64 throughout: a run has no instruction cap.

// rslot is one in-flight instruction, main-thread or p-thread. Producer
// references (prod) are either p-thread slot ids (>= 0, always in the arena
// region) or encoded main-thread sequence numbers (mainRef, <= -2); none
// (-1) is empty. pins reference-counts p-thread slots; it is unused for ring
// slots.
type rslot struct {
	readyMin int64
	availC   int64
	compC    int64
	effAddr  int64
	seq      int64 // dynamic instruction index; -1 for p-thread slots
	winSeq   int64 // window-entry order (issue priority: oldest first)
	prod     [3]int64

	waiterHead int32
	nextWaiter int32
	pins       int32

	class   uint8
	latAdd  uint8
	issued  bool
	isPt    bool
	fwdHit  bool
	isStore bool
}

// none is the nil slot id / producer reference.
const none = -1

// wheelSize is the timing wheel's horizon in cycles (power of two). It
// comfortably covers ordinary completion latencies (memory plus queueing);
// the rare farther-out completion spills into a heap, which is correct at
// any horizon — the size only trades memory for spill frequency.
const wheelSize = 2048

// mainRef encodes a main-thread producer reference by sequence number;
// mainSeq decodes it. The encoding keeps sequence numbers (which overlap
// slot ids numerically) distinct from p-thread slot ids in prod entries.
func mainRef(seq int64) int64 { return -2 - seq }
func mainSeq(ref int64) int64 { return -2 - ref }

// khent is a pending-heap entry: the inline readyMin key plus the slot id,
// keeping the sift loops free of slot-array indirections.
type khent struct {
	key int64
	id  int32
}

// keyHeap is a binary min-heap over inline keys. Equal-key order is
// irrelevant: every entry with key <= cycle transfers to the ready queue
// before any issue, and the ready queue orders by unique winSeq.
type keyHeap []khent

func (h *keyHeap) push(key int64, id int32) {
	a := append(*h, khent{key, id})
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].key <= a[i].key {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	*h = a
}

func (h *keyHeap) pop() int32 {
	a := *h
	top := a[0].id
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && a[c+1].key < a[c].key {
			c++
		}
		if a[i].key <= a[c].key {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}

// readyQ holds the ready-to-issue instructions as a bitmap ring indexed by
// winSeq, popping in ascending winSeq order. winSeq values are unique, so
// this is exactly the order a min-heap keyed by winSeq produces. All live
// winSeqs stay within one ring window ([min, min+mask]); push grows the ring
// when a new value would widen the span past that (only reachable with the
// RS throttle ablated).
type readyQ struct {
	idOf  []int32
	bits  []uint64
	mask  int64
	min   int64 // lower bound on the smallest set winSeq; exact after a pop
	max   int64 // upper bound on the largest set winSeq
	count int32
}

func newReadyQ(capacity int) readyQ {
	c := int64(ceilPow2(64, capacity))
	return readyQ{idOf: make([]int32, c), bits: make([]uint64, c/64), mask: c - 1}
}

func (q *readyQ) push(ws int64, id int32) {
	if q.count == 0 {
		q.min, q.max = ws, ws
	} else {
		lo, hi := q.min, q.max
		if ws < lo {
			lo = ws
		}
		if ws > hi {
			hi = ws
		}
		for hi-lo > q.mask {
			q.grow()
		}
		q.min, q.max = lo, hi
	}
	q.count++
	i := ws & q.mask
	q.idOf[i] = id
	q.bits[i>>6] |= 1 << uint(i&63)
}

// grow doubles the ring, re-placing the set bits (all within the old
// [min, min+mask] window, so each maps to a distinct old index).
func (q *readyQ) grow() {
	c := (q.mask + 1) * 2
	n := readyQ{
		idOf:  make([]int32, c),
		bits:  make([]uint64, c/64),
		mask:  c - 1,
		min:   q.min,
		max:   q.max,
		count: q.count,
	}
	for ws := q.min; ws <= q.max; ws++ {
		i := ws & q.mask
		if q.bits[i>>6]&(1<<uint(i&63)) != 0 {
			j := ws & n.mask
			n.idOf[j] = q.idOf[i]
			n.bits[j>>6] |= 1 << uint(j&63)
		}
	}
	*q = n
}

// pop removes and returns the slot with the smallest winSeq. Caller
// guarantees count > 0. The scan walks absolute word positions upward from
// min; ring words are word-aligned images of absolute words, and the one
// ring word shared by the window's two ends keeps its low/high halves in
// disjoint bit ranges, so the absolute walk reads each live bit exactly once.
func (q *readyQ) pop() int32 {
	nw := int64(len(q.bits))
	ws := q.min
	aw := ws >> 6
	w := q.bits[aw&(nw-1)] >> uint(ws&63)
	for w == 0 {
		aw++
		ws = aw << 6
		w = q.bits[aw&(nw-1)]
	}
	ws += int64(bits.TrailingZeros64(w))
	i := ws & q.mask
	q.bits[i>>6] &^= 1 << uint(i&63)
	q.min = ws + 1
	q.count--
	return q.idOf[i]
}

// i32ring is a power-of-two FIFO of slot ids.
type i32ring struct {
	buf  []int32
	head int
	size int
}

func newI32Ring(capacity int) i32ring {
	return i32ring{buf: make([]int32, ceilPow2(8, capacity))}
}

// ceilPow2 returns the least power of two that is at least n and at least
// lo, itself a power of two.
func ceilPow2(lo, n int) int {
	for lo < n {
		lo <<= 1
	}
	return lo
}

func (r *i32ring) len() int     { return r.size }
func (r *i32ring) front() int32 { return r.buf[r.head] }

func (r *i32ring) push(id int32) {
	if r.size == len(r.buf) {
		grown := make([]int32, len(r.buf)*2)
		for i := 0; i < r.size; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = id
	r.size++
}

func (r *i32ring) pop() int32 {
	id := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
	return id
}

// rctx is one of the additional SMT contexts p-threads run in. The pending
// slice's backing array is reused across launches; head marks the injection
// point so draining never reslices the backing away.
type rctx struct {
	pending []int32 // body slots, pending[head:] not yet injected
	head    int
	burstAt int64 // next injection cycle
}

func (c *rctx) busy() bool { return c.head < len(c.pending) }

// ptBodyMeta caches per-body-instruction scheduling facts so launches index
// flat arrays instead of re-deriving class and latency per dynamic instance.
type ptBodyMeta struct {
	insts  []isa.Inst
	class  []uint8
	latAdd []uint8
}

// replaySim is one timing simulation: the backend state plus the trace
// reader feeding it.
type replaySim struct {
	cfg   Config
	prog  *program.Program
	mem   *memsys
	stats Stats

	cycle int64

	frontEndDepth   int64
	redirectPenalty int64
	agenLat         int64
	forwardLat      int64
	l2Lat           int64

	// Slot storage: slots[0:ringSz] is the main-thread ring (slot id ==
	// sequence number & slotMask); slots[ringSz:] is the p-thread arena,
	// recycled through freeL when a slot's pin count drops to zero. Callers
	// must not hold *rslot across an allocPt (the backing array may grow).
	slots    []rslot
	freeL    []int32
	ringSz   int32
	slotMask int64

	// Front end. src reads trace's records in order; rec(seq) is the record
	// of sequence number seq, which fetch decoded into recs, a ring beside
	// the slot ring. dec is the program's decode table, indexed by a
	// record's PC. pos is the next sequence number to fetch. arch is the
	// architectural state at the fetch frontier that p-thread launches
	// read: a replica the records' effects are applied to, or nil in a run
	// in which no launch reads it. read marks the replica's registers whose
	// value anything reads — a p-thread body's live-ins and every store's
	// data register — so a replay reads a load's value from the replica's
	// memory only into those.
	src       frontend.Reader
	trace     *Trace
	arch      *cpu.State
	dec       []frontend.Dec
	read      [isa.NumRegs]bool
	recs      []frontend.Rec
	pos       int64
	fetchQ    i32ring
	blocker   int32
	fetchDone bool
	exhausted bool // fetch ran off a non-truncated trace: trace too short

	rsCount int
	winSeq  int64
	ready   readyQ

	// Pending instructions (scheduled, producers resolved, completion-gated)
	// wait in a timing wheel of intrusive per-cycle lists threaded through
	// rslot.nextWaiter (free to reuse: a slot waits on producers or on a
	// cycle, never both). Entries beyond the wheel horizon spill into a
	// keyHeap. Transfer order into the ready queue is irrelevant — issue
	// order is decided by unique winSeqs — so buckets need no internal order.
	wheel      []int32  // per-bucket list head (slot id), none = empty
	wheelBits  []uint64 // nonempty-bucket bitmap
	wheelMask  int64
	wheelCount int
	spillH     keyHeap

	busyCtxs int

	rob         i32ring
	storeQCount int

	// Pre-execution: trig[pc] is 1+index into trigList, 0 for none.
	trig     []int32
	trigList [][]*pthread.PThread
	ctxs     []rctx
	ptMeta   map[*pthread.PThread]ptBodyMeta

	launchRegs []int64
	bodyExec   cpu.BodyExec

	// ren is the main thread's rename table, which rename runs in program
	// order. It comes last so that its 2 KB table does not separate the
	// fields the hot loop reads together.
	ren frontend.Renamer
}

// Replay scores the p-thread selection pts under cfg against the recorded
// trace t instead of re-running the front end: the returned Stats are
// bit-identical to RunContext(ctx, t.Program(), pts, cfg). The trace must
// have been recorded under the same TraceVersion and cover TraceSpan(cfg)
// records — a recording under any Config with at least that span does, for
// any machine — or end where the program's fetch stream ends; a too-short
// trace returns an error, never silently wrong numbers.
func Replay(ctx context.Context, t *Trace, pts []*pthread.PThread, cfg Config) (Stats, error) {
	if t.Version() != TraceVersion {
		return Stats{}, fmt.Errorf("timing: trace version %q does not match simulator %q", t.Version(), TraceVersion)
	}
	cfg = cfg.withDefaults()
	total := runTotal(cfg)
	// A trace ending in HALT (or truncated by an oracle error) covers the
	// whole fetch stream; an extent-bounded trace must cover this run's
	// total plus its maximum fetch-ahead.
	complete := t.Err() != nil || t.Halted()
	if !complete && TraceSpan(cfg) > int64(t.Records()) {
		return Stats{}, fmt.Errorf("timing: trace of %d records too short for a %d-instruction run", t.Records(), total)
	}
	return newReplay(t, pts, cfg).run(ctx, total)
}

// newReplay prepares a simulation fed from the recorded trace t. cfg has
// its defaults applied.
func newReplay(t *Trace, pts []*pthread.PThread, cfg Config) *replaySim {
	prog := t.Program()
	// The slot and record rings must span the maximum distance between the
	// retirement watermark and the fetch frontier: ROB occupancy plus the
	// fetch queue's high-water mark (under 3xWidth).
	sz := int32(ceilPow2(8, cfg.ROB+4*cfg.Width))
	r := &replaySim{
		cfg:             cfg,
		prog:            prog,
		src:             t.Reader(),
		trace:           t,
		dec:             t.Decode(),
		recs:            make([]frontend.Rec, sz),
		frontEndDepth:   int64(cfg.FrontEndDepth),
		redirectPenalty: int64(cfg.RedirectPenalty),
		agenLat:         int64(cfg.AgenLat),
		forwardLat:      int64(cfg.ForwardLat),
		l2Lat:           int64(cfg.L2Lat),
		slots:           make([]rslot, sz, int(sz)+cfg.RS+4*cfg.Width),
		ringSz:          sz,
		slotMask:        int64(sz - 1),
		fetchQ:          newI32Ring(3 * cfg.Width),
		rob:             newI32Ring(cfg.ROB),
		ready:           newReadyQ(cfg.ROB + cfg.RS),
		wheel:           make([]int32, wheelSize),
		wheelBits:       make([]uint64, wheelSize/64),
		wheelMask:       wheelSize - 1,
		blocker:         none,
		ctxs:            make([]rctx, cfg.PtContexts),
	}
	for i := range r.wheel {
		r.wheel[i] = none
	}
	r.mem = newMemsys(cfg, &r.stats)
	if cfg.Mode != ModeBase && len(pts) > 0 {
		r.trig = make([]int32, len(prog.Insts))
		r.ptMeta = make(map[*pthread.PThread]ptBodyMeta, len(pts))
		for _, pt := range pts {
			if pt.TriggerPC >= 0 && pt.TriggerPC < len(r.trig) {
				i := r.trig[pt.TriggerPC]
				if i == 0 {
					r.trigList = append(r.trigList, nil)
					i = int32(len(r.trigList))
					r.trig[pt.TriggerPC] = i
				}
				r.trigList[i-1] = append(r.trigList[i-1], pt)
			}
			insts := pt.Insts()
			meta := ptBodyMeta{
				insts:  insts,
				class:  make([]uint8, len(insts)),
				latAdd: make([]uint8, len(insts)),
			}
			var written [isa.PtRegs]bool
			for i, in := range insts {
				meta.class[i] = uint8(isa.ClassOf(in.Op))
				meta.latAdd[i] = uint8(isa.Latency(in.Op))
				srcs, ns := in.Sources()
				for _, src := range srcs[:ns] {
					if src < isa.NumRegs && !written[src] {
						r.read[src] = true
					}
				}
				if in.HasDest() && in.Rd < isa.PtRegs {
					written[in.Rd] = true
				}
			}
			r.ptMeta[pt] = meta
		}
		r.launchRegs = make([]int64, isa.PtRegs)
	}
	// Only a launch that executes its body reads the architectural state:
	// with no trigger, or under ModeOverheadSequence, the replay needs no
	// replica and applies no record's effect.
	if r.trig != nil && cfg.Mode != ModeOverheadSequence {
		r.arch = cpu.New(prog)
		for _, d := range r.dec {
			if isa.Class(d.Class) == isa.ClassStore {
				r.read[d.Rs2] = true
			}
		}
	}
	return r
}

// allocPt hands out a recycled (or fresh) p-thread arena slot, reset with
// nil references and one pin (the caller's pending-list reference).
func (r *replaySim) allocPt() int32 {
	var id int32
	if n := len(r.freeL); n > 0 {
		id = r.freeL[n-1]
		r.freeL = r.freeL[:n-1]
	} else {
		r.slots = append(r.slots, rslot{})
		id = int32(len(r.slots) - 1)
	}
	// Reset in place, like fetch: assigning a literal would block-copy it.
	u := &r.slots[id]
	*u = rslot{}
	u.prod, u.seq = [3]int64{none, none, none}, -1
	u.waiterHead, u.nextWaiter = none, none
	u.isPt, u.pins = true, 1
	return id
}

// unpin drops one reference from a p-thread slot; the last reference
// recycles it. Main-thread ring slots are not reference-counted.
func (r *replaySim) unpin(id int32) {
	if id < r.ringSz {
		return
	}
	if r.slots[id].pins--; r.slots[id].pins == 0 {
		r.freeL = append(r.freeL, id)
	}
}

// run executes the simulation loop for a run of total instructions: one
// cycle of every stage per iteration, a warm-up snapshot, the livelock
// guard, and the idle fast-forward.
func (r *replaySim) run(ctx context.Context, total int64) (Stats, error) {
	guard := livelockGuard(total)
	done := ctx.Done()
	var warm Stats
	var warmCycle int64
	var iter int64
	warmed := r.cfg.WarmInsts == 0
	for {
		if done != nil && iter&ctxCheckMask == 0 {
			select {
			case <-done:
				return r.stats, ctx.Err()
			default:
			}
		}
		iter++
		retired := r.retire()
		issued := r.issue()
		renamed := r.rename()
		fetched := r.fetch()
		r.cycle++
		if !warmed && r.stats.Retired >= r.cfg.WarmInsts {
			warm = r.stats
			warmCycle = r.cycle
			warmed = true
		}
		if r.stats.Retired >= total {
			break
		}
		if r.fetchDone && r.fetchQ.len() == 0 && r.rob.len() == 0 {
			break
		}
		if !retired && !issued && !renamed && !fetched {
			// Idle cycle: nothing can happen until the earliest in-flight
			// timestamp matures, so jump the clock there. A stalled front
			// end would have counted one FetchStalls per skipped cycle.
			if next := r.nextEventCycle(); next > r.cycle {
				if next > guard+1 {
					next = guard + 1
				}
				if r.blocker != none && !r.fetchDone {
					r.stats.FetchStalls += next - r.cycle
				}
				r.cycle = next
			}
		}
		if r.cycle > guard {
			return r.stats, fmt.Errorf("timing: no forward progress after %d cycles (%s)", r.cycle, r.prog.Name)
		}
	}
	if r.exhausted {
		return r.stats, fmt.Errorf("timing: trace of %d records exhausted mid-run (%s)", r.trace.Records(), r.prog.Name)
	}
	st := subStats(r.stats, warm)
	st.Cycles = r.cycle - warmCycle
	if st.Cycles > 0 {
		st.IPC = float64(st.Retired) / float64(st.Cycles)
	}
	if st.Launches > 0 {
		st.AvgPtLen = float64(st.PtInsts) / float64(st.Launches)
	}
	return st, nil
}

// pendWait parks a completion-gated slot until cycle t (> r.cycle): in the
// timing wheel within the horizon, in the spill heap beyond it.
func (r *replaySim) pendWait(id int32, t int64) {
	if t-r.cycle >= wheelSize {
		r.spillH.push(t, id)
		return
	}
	i := t & r.wheelMask
	r.slots[id].nextWaiter = r.wheel[i]
	r.wheel[i] = id
	r.wheelBits[i>>6] |= 1 << uint(i&63)
	r.wheelCount++
}

// nextPendingCycle returns the earliest cycle holding a parked slot (wheel
// or spill), or sentinel if none. The wheel scan starts at the current
// cycle: the loop advances the clock before consulting events, so a slot
// due exactly now (its bucket not yet drained — issue has not run for this
// cycle) must be reported, exactly as the pending heap's min was. Every
// parked time is in [cycle, cycle+wheelSize), so ring position encodes the
// absolute cycle uniquely.
func (r *replaySim) nextPendingCycle(sentinel int64) int64 {
	next := sentinel
	if len(r.spillH) > 0 {
		next = r.spillH[0].key
	}
	if r.wheelCount > 0 {
		from := r.cycle
		aw := from >> 6
		w := r.wheelBits[aw&(r.wheelMask>>6)] >> uint(from&63)
		for w == 0 {
			aw++
			from = aw << 6
			w = r.wheelBits[aw&(r.wheelMask>>6)]
		}
		pos := (from + int64(bits.TrailingZeros64(w))) & r.wheelMask
		t := r.cycle + ((pos - r.cycle) & r.wheelMask)
		if t < next {
			next = t
		}
	}
	return next
}

// nextEventCycle returns the earliest future cycle at which any pipeline
// stage could make progress, given that the cycle just simulated made none.
// Every stage's enabling condition is a monotone comparison of the clock
// against an in-flight timestamp (completion, delivery, burst, redirect), so
// the minimum of those timestamps bounds the next state change from below;
// extra candidates only shorten the jump, never skip work.
func (r *replaySim) nextEventCycle() int64 {
	next := unboundedGuard + 1
	// Retire: the ROB head completes.
	if r.rob.len() > 0 {
		if h := &r.slots[r.rob.front()]; h.issued && h.compC < next {
			next = h.compC
		}
	}
	// Issue: the earliest pending slot matures. (Slots parked on an unissued
	// producer wake on that producer's issue — itself a covered event — and
	// a non-empty ready queue would have made this a work cycle.)
	if t := r.nextPendingCycle(next); t < next {
		next = t
	}
	// Rename: a p-thread burst comes due (bursts blocked on the RS throttle
	// instead wait on an issue event), or the front-end head is delivered.
	if r.busyCtxs > 0 {
		for i := range r.ctxs {
			if c := &r.ctxs[i]; c.busy() && c.burstAt >= r.cycle && c.burstAt < next {
				next = c.burstAt
			}
		}
	}
	if r.fetchQ.len() > 0 {
		if a := r.slots[r.fetchQ.front()].availC; a < next {
			next = a
		}
	}
	// Fetch: a resolved mispredicted branch finishes its redirect penalty.
	if b := r.blocker; b != none && r.slots[b].issued {
		if t := r.slots[b].compC + r.redirectPenalty; t < next {
			next = t
		}
	}
	return next
}

// fetch delivers up to Width front-end records into their ring slots; a
// mispredicted branch blocks fetch until it resolves plus the redirect
// penalty, and a taken branch or jump ends the fetch group. The slot's
// previous occupant retired at least a full ROB ago. fetch reports whether
// any state changed (FetchStalls accounting aside).
func (r *replaySim) fetch() bool {
	if r.fetchDone {
		return false
	}
	work := false
	if b := r.blocker; b != none {
		bs := &r.slots[b]
		if !bs.issued || r.cycle < bs.compC+r.redirectPenalty {
			r.stats.FetchStalls++
			return false
		}
		r.blocker = none
		work = true
	}
	if r.fetchQ.len() >= 2*r.cfg.Width {
		return work // front-end buffer full
	}
	for n := 0; n < r.cfg.Width; n++ {
		rec, d := r.next()
		if rec == nil {
			r.fetchDone = true
			return true
		}
		id := int32(r.pos & r.slotMask)
		flags := d.Flags(rec)
		// Reset in place: a composite literal of this size is built on the
		// stack and block-copied, a measurable cost once per instruction.
		u := &r.slots[id]
		*u = rslot{}
		// Word is the effective address of a load or store; the other
		// classes never read effAddr.
		u.availC, u.effAddr, u.seq = r.cycle+r.frontEndDepth, rec.Word, r.pos
		u.prod = [3]int64{none, none, none}
		u.waiterHead, u.nextWaiter = none, none
		u.class, u.latAdd, u.isStore = d.Class, d.LatAdd, flags&frontend.FStore != 0
		r.fetchQ.push(id)
		r.pos++
		work = true
		if flags&frontend.FBrLookup != 0 {
			r.stats.BrLookups++
		}
		if flags&frontend.FMispredict != 0 {
			r.stats.BrMispred++
			r.blocker = id
			return true
		}
		if flags&frontend.FHalt != 0 {
			r.fetchDone = true
			return true
		}
		if flags&frontend.FBreak != 0 {
			return true
		}
	}
	return work
}

// next decodes the front-end record at r.pos into its ring slot and
// returns it with its decode-table entry, or nils at the end of the
// stream. It applies the record's architectural effect to the replica, if
// there is one. The replica is the oracle's state at this point of fetch
// order, so a load's value is the replica's memory word and a store's
// value its data register; a load into a register nothing reads leaves it
// stale. The stream ends where the oracle errored out, which a recording
// marks as truncation; a recording ending anywhere else was too short for
// this run, which fails the replay rather than letting it diverge.
func (r *replaySim) next() (*frontend.Rec, *frontend.Dec) {
	rec := r.rec(r.pos)
	if !r.src.Next(rec) {
		r.exhausted = r.trace.Err() == nil
		return nil, nil
	}
	d := &r.dec[rec.PC]
	if a := r.arch; a != nil {
		switch {
		case isa.Class(d.Class) == isa.ClassStore:
			a.Mem.Write(rec.Word, a.Regs[d.Rs2])
		case d.Rd == frontend.NoDest:
		case isa.Class(d.Class) == isa.ClassLoad:
			if r.read[d.Rd] {
				a.Regs[d.Rd] = a.Mem.Read(rec.Word)
			}
		default:
			a.Regs[d.Rd] = rec.Word
		}
	}
	return rec, d
}

// rec returns the front-end record of main-thread instruction seq, which
// must be fetched and not yet retired.
func (r *replaySim) rec(seq int64) *frontend.Rec { return &r.recs[seq&r.slotMask] }

// rename moves instructions from the front end into the backend, injects
// p-thread bursts (stealing sequencing slots), and launches p-threads when
// triggers rename. It reports whether anything was injected or renamed.
func (r *replaySim) rename() bool {
	budget := r.cfg.Width
	work := false

	// P-thread injection first: bursts preempt main-thread slots. Injection
	// is throttled when the shared reservation stations back up, leaving
	// headroom for the main thread (ICOUNT-style SMT fairness): without
	// this, long p-thread bodies full of cache misses would park in the RS
	// and starve the main thread outright. rsCount tracks exactly the
	// renamed-but-unissued instructions, i.e. the RS occupancy.
	rsHeadroom := r.cfg.RS - 2*r.cfg.Width
	for i := 0; r.busyCtxs > 0 && i < len(r.ctxs); i++ {
		ctx := &r.ctxs[i]
		if !ctx.busy() || r.cycle < ctx.burstAt {
			continue
		}
		if !r.cfg.NoRSThrottle && r.cfg.Mode != ModeOverheadSequence && r.rsCount >= rsHeadroom {
			continue // retry next cycle
		}
		n := r.cfg.PtBurst
		if pend := len(ctx.pending) - ctx.head; n > pend {
			n = pend
		}
		if r.cfg.Mode != ModeLatencyOnly {
			if n > budget {
				n = budget
			}
			budget -= n
		}
		if n == 0 {
			continue
		}
		for _, id := range ctx.pending[ctx.head : ctx.head+n] {
			r.stats.PtInsts++
			if r.cfg.Mode == ModeOverheadSequence {
				r.unpin(id) // sequenced and immediately discarded
				continue
			}
			u := &r.slots[id]
			u.availC = r.cycle
			u.pins++ // scheduler
			r.enterWindow(id)
			r.unpin(id) // pending slot released
		}
		ctx.head += n
		if ctx.head == len(ctx.pending) {
			ctx.pending = ctx.pending[:0]
			ctx.head = 0
			r.busyCtxs--
		}
		ctx.burstAt = r.cycle + int64(r.cfg.PtBurst)
		work = true
	}

	// Main thread.
	for budget > 0 && r.fetchQ.len() > 0 {
		id := r.fetchQ.front()
		u := &r.slots[id]
		if u.availC > r.cycle || r.rob.len() >= r.cfg.ROB || r.rsCount >= r.cfg.RS {
			return work
		}
		if u.isStore && r.storeQCount >= r.cfg.StoreQueue {
			return work
		}
		r.fetchQ.pop()
		budget--
		work = true
		rec := r.rec(u.seq)
		// The rename table, run in program order, names the most recent
		// earlier writer of each source; an in-flight writer is the
		// producer, a retired one a dependency a live table would already
		// have cleared.
		for i, j := range r.ren.Link(u.seq, &r.dec[rec.PC]) {
			if r.inFlight(j) {
				u.prod[i] = mainRef(j)
			}
		}
		if u.isStore {
			r.storeQCount++
		}
		r.rob.push(id)
		r.enterWindow(id)
		if r.trig != nil {
			if ti := r.trig[rec.PC]; ti != 0 {
				// launch allocates slots: u is invalid after this call.
				r.launch(r.trigList[ti-1], id)
			}
		}
	}
	return work
}

// enterWindow admits a renamed slot to the issue scheduler: it takes the
// next age stamp, counts against the reservation stations, and is
// folded/parked by schedule.
func (r *replaySim) enterWindow(id int32) {
	r.slots[id].winSeq = r.winSeq
	r.winSeq++
	r.rsCount++
	r.schedule(id)
}

// schedule folds the completion times of already-issued producers into the
// slot's ready time, releasing each folded producer reference, and then
// places it: parked on the first still-unissued producer's waiter list (to
// be re-scheduled when it issues), ready for issue, or pending until its
// ready cycle matures. Main-thread producer references resolve through the
// retirement watermark: a retired producer completed at or before the
// current cycle, so it constrains nothing.
func (r *replaySim) schedule(id int32) {
	u := &r.slots[id]
	for i, p := range u.prod {
		if p == none {
			continue
		}
		var ps *rslot
		if p < none {
			seq := mainSeq(p)
			if !r.inFlight(seq) {
				u.prod[i] = none
				continue
			}
			ps = &r.slots[seq&r.slotMask]
		} else {
			ps = &r.slots[p]
		}
		if !ps.issued {
			u.nextWaiter = ps.waiterHead
			ps.waiterHead = id
			return
		}
		if ps.compC > u.readyMin {
			u.readyMin = ps.compC
		}
		u.prod[i] = none
		if p >= 0 {
			r.unpin(int32(p))
		}
	}
	if u.readyMin <= r.cycle {
		r.ready.push(u.winSeq, id)
	} else {
		r.pendWait(id, u.readyMin)
	}
}

// launch starts dynamic instances of the static p-threads triggered by the
// main-thread slot triggerID. Each body executes functionally against the
// architectural state at the fetch frontier to learn its effective
// addresses.
func (r *replaySim) launch(pts []*pthread.PThread, triggerID int32) {
	trigSeq := r.slots[triggerID].seq
	for _, pt := range pts {
		if !pt.ActiveAt(trigSeq) {
			continue
		}
		var ctx *rctx
		for i := range r.ctxs {
			if c := &r.ctxs[i]; !c.busy() {
				ctx = c
				break
			}
		}
		if ctx == nil {
			r.stats.Drops++
			continue
		}
		r.stats.Launches++
		ctx.pending = ctx.pending[:0]
		ctx.head = 0
		if r.cfg.Mode == ModeOverheadSequence {
			// Bodies are discarded at injection; only sizes matter.
			for range pt.Body {
				ctx.pending = append(ctx.pending, r.allocPt())
			}
			if len(ctx.pending) > 0 {
				r.busyCtxs++
			}
			ctx.burstAt = r.cycle + 1
			continue
		}
		regs := r.launchRegs
		copy(regs[:isa.NumRegs], r.arch.Regs[:])
		clear(regs[isa.NumRegs:])
		meta := r.ptMeta[pt]
		res := r.bodyExec.Exec(meta.insts, regs, r.arch.Mem)
		for i, bi := range pt.Body {
			id := r.allocPt()
			u := &r.slots[id]
			u.class = meta.class[i]
			u.latAdd = meta.latAdd[i]
			u.effAddr = res.EffAddrs[i]
			u.readyMin = r.cycle
			for k := 0; k < 2; k++ {
				switch d := bi.Dep[k]; {
				case d >= 0 && d < i:
					p := ctx.pending[d]
					u.prod[k] = int64(p)
					r.slots[p].pins++
				case d == pthread.DepTrigger:
					u.prod[k] = mainRef(trigSeq)
				}
			}
			if d := bi.MemDep; d >= 0 && d < i {
				p := ctx.pending[d]
				u.prod[2] = int64(p)
				r.slots[p].pins++
			}
			u.fwdHit = res.FromStoreBuf[i]
			ctx.pending = append(ctx.pending, id)
		}
		if len(ctx.pending) > 0 {
			r.busyCtxs++
		}
		ctx.burstAt = r.cycle + 1
	}
}

// issue transfers every pending slot whose cycle arrived (this cycle's
// wheel bucket, plus any due spill entries) to the ready queue, then issues
// up to Width ready slots oldest first, computing their completion times
// (memory access included) and waking the consumers parked on them. It
// reports whether anything issued.
func (r *replaySim) issue() bool {
	if r.wheelCount > 0 {
		if i := r.cycle & r.wheelMask; r.wheelBits[i>>6]&(1<<uint(i&63)) != 0 {
			for id := r.wheel[i]; id != none; {
				next := r.slots[id].nextWaiter
				r.slots[id].nextWaiter = none
				r.ready.push(r.slots[id].winSeq, id)
				r.wheelCount--
				id = next
			}
			r.wheel[i] = none
			r.wheelBits[i>>6] &^= 1 << uint(i&63)
		}
	}
	for len(r.spillH) > 0 && r.spillH[0].key <= r.cycle {
		id := r.spillH.pop()
		r.ready.push(r.slots[id].winSeq, id)
	}
	issued := 0
	for issued < r.cfg.Width && r.ready.count > 0 {
		id := r.ready.pop()
		issued++
		u := &r.slots[id]
		u.issued = true
		u.compC = r.complete(id)
		u = &r.slots[id] // complete does not alloc, but re-take for clarity
		r.rsCount--
		for w := u.waiterHead; w != none; {
			next := r.slots[w].nextWaiter
			r.slots[w].nextWaiter = none
			r.schedule(w)
			w = next
		}
		u.waiterHead = none
		r.unpin(id) // scheduler reference released (p-thread slots)
	}
	return issued > 0
}

// complete computes the slot's completion cycle given that it issues now.
func (r *replaySim) complete(id int32) int64 {
	u := &r.slots[id]
	now := r.cycle
	switch isa.Class(u.class) {
	case isa.ClassLoad:
		t := now + r.agenLat
		if u.isPt {
			if u.fwdHit {
				return t + r.forwardLat
			}
			if r.cfg.Mode == ModeOverheadExecute {
				// Execute but do not access the data cache (§4.3).
				return t + r.l2Lat
			}
			return r.mem.ptLoad(u.effAddr, t)
		}
		r.stats.Loads++
		if r.forwardFrom(u) {
			u.fwdHit = true
			return t + r.forwardLat
		}
		return r.mem.mainLoad(u.effAddr, t)
	case isa.ClassStore:
		return now + r.agenLat
	case isa.ClassMul:
		return now + int64(u.latAdd)
	default:
		return now + 1
	}
}

// forwardFrom reports whether an older in-flight store to the load's word
// has issued, walking the records' backward same-word store links. Links
// are strictly decreasing and retirement is program-ordered, so the walk
// stops at the first retired store. Renamed-but-unissued stores never
// forward.
func (r *replaySim) forwardFrom(u *rslot) bool {
	seq := u.seq
	for d := r.rec(seq).PrevStore; d != 0; d = r.rec(seq).PrevStore {
		if seq -= int64(d); !r.inFlight(seq) {
			break
		}
		if r.slots[seq&r.slotMask].issued {
			return true
		}
	}
	return false
}

// inFlight reports whether main-thread instruction seq has not retired yet.
// Retirement is strictly program-ordered, so the retired count is a
// watermark over sequence numbers.
func (r *replaySim) inFlight(seq int64) bool { return seq >= r.stats.Retired }

// retire commits up to Width completed instructions in program order;
// retiring stores update the memory system and release their store-queue
// slot. It reports whether anything retired.
func (r *replaySim) retire() bool {
	n := 0
	for n < r.cfg.Width && r.rob.len() > 0 {
		id := r.rob.front()
		u := &r.slots[id]
		if !u.issued || u.compC > r.cycle {
			break
		}
		r.rob.pop()
		if u.isStore {
			r.mem.mainStore(u.effAddr, r.cycle)
			r.storeQCount--
		}
		r.stats.Retired++
		n++
	}
	return n > 0
}
