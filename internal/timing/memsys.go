package timing

import "preexec/internal/cache"

// memsys is the event-driven data-memory system: two cache levels with
// in-flight fill tracking (lines carry ReadyAt timestamps), a bounded MSHR
// pool, and two bandwidth-limited buses (backside L1<->L2 at core frequency,
// memory bus at quarter frequency), both modeled as busy-until cursors so
// concurrent misses queue behind each other — the contention the paper
// identifies as the source of full-coverage over-estimation (§4.3).
//
// Latencies are flattened to int64 once at construction so the per-access
// hot path does no repeated Config field loads or int conversions.
type memsys struct {
	l1d   *cache.Cache
	l2    *cache.Cache
	stats *Stats

	l1dLat        int64
	l2Lat         int64
	memLat        int64
	backsideBusCy int64
	memBusCy      int64
	mshrs         int

	backsideFree int64
	membusFree   int64
	mshr         []int64 // release times of outstanding misses
}

func newMemsys(cfg Config, stats *Stats) *memsys {
	// Every run gets its own caches: a hierarchy shared between runs would
	// carry cache state from one run into the next.
	h := cache.DefaultHierarchy()
	return &memsys{
		l1d:           h.L1D,
		l2:            h.L2,
		stats:         stats,
		l1dLat:        int64(cfg.L1DLat),
		l2Lat:         int64(cfg.L2Lat),
		memLat:        int64(cfg.MemLat),
		backsideBusCy: int64(cfg.BacksideBusCy),
		memBusCy:      int64(cfg.MemBusCy),
		mshrs:         cfg.MSHRs,
		mshr:          make([]int64, 0, cfg.MSHRs),
	}
}

// busWait reserves the bus for occ cycles starting no earlier than now and
// returns the queueing delay suffered.
func busWait(cursor *int64, now int64, occ int64) int64 {
	start := now
	if *cursor > start {
		start = *cursor
	}
	*cursor = start + occ
	return start - now
}

// mshrWait returns the extra delay until an MSHR is free at time now and
// registers a new outstanding miss released at the returned ready time plus
// delay. Callers pass the fill completion time.
func (m *memsys) mshrWait(now int64) int64 {
	// Garbage-collect released entries.
	live := m.mshr[:0]
	var minRel int64 = 1 << 62
	for _, r := range m.mshr {
		if r > now {
			live = append(live, r)
			if r < minRel {
				minRel = r
			}
		}
	}
	m.mshr = live
	if len(m.mshr) < m.mshrs {
		return 0
	}
	return minRel - now
}

// l2Access performs the L2 side of a request at time t. pt marks p-thread
// requests (which set coverage metadata); main demand requests harvest it.
// It returns the cycle the requested line is ready at the L2.
func (m *memsys) l2Access(addr int64, t int64, pt bool) int64 {
	hit, _, line := m.l2.Access(addr, false)
	if hit {
		switch {
		case line.ReadyAt <= t:
			// Resident. A main-thread first touch of a p-thread-fetched
			// line is a fully covered miss.
			if !pt && line.BroughtByPt {
				m.stats.MissesCovered++
				m.stats.MissesFullCovered++
				line.BroughtByPt = false
			}
			return t + m.l2Lat
		default:
			// In flight: wait for the fill.
			if !pt && line.BroughtByPt {
				m.stats.MissesCovered++
				line.BroughtByPt = false
			}
			ready := line.ReadyAt
			if ready < t+m.l2Lat {
				ready = t + m.l2Lat
			}
			return ready
		}
	}
	// L2 miss: allocate MSHR, cross the memory bus, fetch from memory.
	delay := m.mshrWait(t)
	delay += busWait(&m.membusFree, t+delay, m.memBusCy)
	ready := t + delay + m.l2Lat + m.memLat
	m.mshr = append(m.mshr, ready)
	line.ReadyAt = ready
	line.BroughtByPt = pt
	if pt {
		line.PtReqAt = t
	} else {
		m.stats.L2Misses++
	}
	return ready
}

// mainLoad services a main-thread demand load whose address is ready at
// time t, returning its completion cycle.
func (m *memsys) mainLoad(addr int64, t int64) int64 {
	hit, _, l1 := m.l1d.Access(addr, false)
	if hit && l1.ReadyAt <= t {
		return t + m.l1dLat
	}
	if hit {
		// L1 fill in flight (e.g. an earlier miss to the same line).
		return l1.ReadyAt
	}
	t1 := t + m.l1dLat // miss determined after the L1 probe
	t1 += busWait(&m.backsideFree, t1, m.backsideBusCy)
	ready := m.l2Access(addr, t1, false)
	l1.ReadyAt = ready
	return ready
}

// ptLoad services a p-thread load at time t. P-thread loads prefetch into
// the L2 only (the paper disables their L1 fill path, §4.1).
func (m *memsys) ptLoad(addr int64, t int64) int64 {
	return m.l2Access(addr, t, true)
}

// mainStore retires a store at time t: it updates cache state and charges
// bus occupancy for write misses, but never stalls the pipeline (the store
// queue absorbs the latency).
func (m *memsys) mainStore(addr int64, t int64) {
	hit, victimDirty, l1 := m.l1d.Access(addr, true)
	if hit {
		return
	}
	busWait(&m.backsideFree, t, m.backsideBusCy)
	if victimDirty {
		busWait(&m.backsideFree, t, m.backsideBusCy)
	}
	l2hit, _, l2 := m.l2.Access(addr, true)
	if !l2hit {
		// Write allocate; occupies the memory bus but the store queue hides
		// the latency from the pipeline.
		busWait(&m.membusFree, t, m.memBusCy)
		l2.ReadyAt = t + m.l2Lat + m.memLat
	}
	l1.ReadyAt = t + m.l1dLat
}
