package selector

// This file is the frozen reference selector, kept only as a test oracle:
// SelectTree as it was when it rescored every prefix of every root-to-leaf
// path on every overlap-correction iteration, with the scoring chain it
// reached (advantage.ScorePath, pthread.Optimize, and constantFold rebuilding
// per-index consumer lists after every fold). TestSelectMatchesReference
// asserts that SelectForest and SelectRegions, which score each trigger node
// once and fold with consumer counts, select exactly what this copy selects.
//
// Nothing here is reachable from non-test code. When the selection or
// scoring *model* changes intentionally, update this copy in the same commit
// and say so — the invariant the equivalence test defends is "optimizations
// must not change selections", not "the selector may never evolve".

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"preexec/internal/advantage"
	"preexec/internal/isa"
	"preexec/internal/pthread"
	"preexec/internal/slice"
	"preexec/internal/workload"
)

// refSelectTree is SelectTree with every candidate rescored per leaf and
// per iteration.
func refSelectTree(tree *slice.Tree, dctrig map[int]int64, opts Options) []*selected {
	// Gather root-to-leaf paths.
	var leaves [][]*slice.Node
	tree.Walk(func(path []*slice.Node) {
		n := path[len(path)-1]
		if len(n.Children) == 0 && len(path) > 1 {
			cp := make([]*slice.Node, len(path))
			copy(cp, path)
			leaves = append(leaves, cp)
		}
	})
	if len(leaves) == 0 {
		return nil
	}

	// One selection slot per leaf; nil = leaf declines.
	cur := make([]*selected, len(leaves))
	// Reductions applied to a candidate trigger node: DCptcm of selected
	// descendants, keyed by trigger node pointer.
	for iter := 0; iter < opts.maxIterations(); iter++ {
		// Descendant-coverage currently selected, per node.
		reduce := make(map[*slice.Node]int64)
		for _, s := range cur {
			if s == nil {
				continue
			}
			// Every proper ancestor of s's trigger double-tolerates s's
			// covered misses.
			for _, anc := range s.path[:len(s.path)-1] {
				reduce[anc] += s.score.DCptcm
			}
		}
		changed := false
		for li, leaf := range leaves {
			var best *selected
			for l := 2; l <= len(leaf); l++ {
				sc, okc := refScorePath(leaf[:l], dctrig, opts.Params)
				if !okc {
					continue
				}
				adj := sc.ADVagg - float64(reduce[leaf[l-1]])*sc.LT
				if adj <= 0 {
					continue
				}
				if best == nil || adj > best.adjusted {
					best = &selected{path: leaf[:l:l], score: sc, adjusted: adj}
				}
			}
			if !sameSelection(cur[li], best) {
				cur[li] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Deduplicate: leaves sharing a prefix may select the same trigger node.
	seen := make(map[*slice.Node]bool)
	var out []*selected
	for _, s := range cur {
		if s == nil || seen[s.trigger()] {
			continue
		}
		seen[s.trigger()] = true
		out = append(out, s)
	}
	// Final adjusted advantages with the definitive selection in place.
	for _, p := range out {
		p.adjusted = p.score.ADVagg
		for _, c := range out {
			if p.isAncestorOf(c) {
				p.adjusted -= float64(c.score.DCptcm) * p.score.LT
			}
		}
	}
	return out
}

// refSelectForest is SelectForest over refSelectTree.
func refSelectForest(forest *slice.Forest, opts Options) Result {
	var all []*selected
	for _, root := range forest.SortedRoots() {
		all = append(all, refSelectTree(forest.Trees[root], forest.DCtrig, opts)...)
	}
	// Deterministic order: by trigger PC, then root PC.
	sort.SliceStable(all, func(i, j int) bool {
		ti, tj := all[i].trigger().PC, all[j].trigger().PC
		if ti != tj {
			return ti < tj
		}
		return all[i].path[0].PC < all[j].path[0].PC
	})

	pts := make([]*pthread.PThread, 0, len(all))
	for _, s := range all {
		pt := &pthread.PThread{
			TriggerPC: s.trigger().PC,
			Roots:     []int{s.path[0].PC},
			Body:      s.score.Body,
			DCtrig:    s.score.DCtrig,
			DCptcm:    s.score.DCptcm,
			LT:        s.score.LT,
			OH:        s.score.OH,
			ADVagg:    s.adjusted,
			FullCov:   s.score.FullCov,
		}
		pts = append(pts, pt)
	}
	if opts.Merge {
		oh := func(size int) float64 { return opts.Params.Overhead(size) }
		pts = pthread.MergeAll(pts, oh, opts.mergeMaxLen())
	}
	return Result{PThreads: pts, Pred: predict(pts)}
}

// refSelectRegions is SelectRegions over refSelectForest.
func refSelectRegions(regions []slice.Region, opts Options) Result {
	var pts []*pthread.PThread
	for _, r := range regions {
		res := refSelectForest(r.Forest, opts)
		if len(regions) > 1 {
			for _, pt := range res.PThreads {
				pt.RegionStart, pt.RegionEnd = r.Start, r.End
			}
		}
		pts = append(pts, res.PThreads...)
	}
	return Result{PThreads: pts, Pred: predict(pts)}
}

// refScorePath is advantage.ScorePath over refOptimize.
func refScorePath(path []*slice.Node, dctrig map[int]int64, p advantage.Params) (advantage.Score, bool) {
	k := len(path) - 1
	maxLen := p.MaxLen
	if maxLen <= 0 {
		maxLen = 32
	}
	if k < 1 || k > maxLen {
		return advantage.Score{}, false
	}
	trigger := path[k]
	pt := pthread.FromPath(path)
	if pt == nil {
		return advantage.Score{}, false
	}
	body := pt.Body
	if p.Optimize {
		body = refOptimize(body)
	}

	trigComp := refLatency(p, trigger.Op.Op)
	scdhMT := refMainThreadSCDH(path, trigComp, p)
	scdhPT := refPthreadSCDH(body, trigComp, p)

	s := advantage.Score{
		Size:   len(body),
		SCDHmt: scdhMT,
		SCDHpt: scdhPT,
		DCtrig: dctrig[trigger.PC],
		DCptcm: trigger.DCptcm,
		Body:   body,
	}
	diff := scdhMT - scdhPT
	s.FullCov = diff >= p.MemLat
	s.LT = math.Min(math.Max(diff, 0), p.MemLat)
	s.OH = p.Overhead(s.Size)
	s.LTagg = float64(s.DCptcm) * s.LT
	s.OHagg = float64(s.DCtrig) * s.OH
	s.ADVagg = s.LTagg - s.OHagg
	return s, true
}

func refLatency(p advantage.Params, op isa.Op) float64 {
	if op == isa.LD {
		if p.LoadLat > 0 {
			return p.LoadLat
		}
		return 1
	}
	return float64(isa.Latency(op))
}

func refMainThreadSCDH(path []*slice.Node, trigComp float64, p advantage.Params) float64 {
	k := len(path) - 1
	bw := p.BWSeqMT()
	dTrig := path[k].AvgDist()
	comp := make([]float64, k+1) // indexed by depth
	comp[k] = trigComp
	depReady := func(depth int, pos int) float64 {
		if pos == slice.NoDep || pos > k {
			return 0 // live-in
		}
		return comp[pos]
	}
	for d := k - 1; d >= 0; d-- {
		n := path[d]
		dist := dTrig - n.AvgDist()
		if dist < 0 {
			dist = 0
		}
		sc := math.Ceil(dist / bw)
		ready := math.Max(depReady(d, n.DepPos[0]), depReady(d, n.DepPos[1]))
		ready = math.Max(ready, depReady(d, n.MemDepPos))
		start := math.Max(sc, ready)
		if d == 0 {
			return start // miss initiation: no latency added
		}
		comp[d] = start + refLatency(p, n.Op.Op)
	}
	return comp[0]
}

func refPthreadSCDH(body []pthread.BodyInst, trigComp float64, p advantage.Params) float64 {
	if len(body) == 0 {
		return 0
	}
	comp := make([]float64, len(body))
	depReady := func(d int) float64 {
		switch {
		case d >= 0:
			return comp[d]
		case d == pthread.DepTrigger:
			return trigComp
		default:
			return 0
		}
	}
	for j, bi := range body {
		sc := float64(j)
		ready := math.Max(depReady(bi.Dep[0]), depReady(bi.Dep[1]))
		ready = math.Max(ready, depReady(bi.MemDep))
		start := math.Max(sc, ready)
		if j == len(body)-1 {
			return start
		}
		comp[j] = start + refLatency(p, bi.Inst.Op)
	}
	return comp[len(body)-1]
}

// refOptimize is pthread.Optimize over refConstantFold.
func refOptimize(body []pthread.BodyInst) []pthread.BodyInst {
	w := make([]pthread.BodyInst, len(body))
	copy(w, body)
	for pass := 0; pass < 4; pass++ {
		ch1 := refStoreLoadElim(w)
		ch2 := refConstantFold(w)
		ch3 := refMoveElim(w)
		var ch4 bool
		w, ch4 = refDeadCodeElim(w)
		if !ch1 && !ch2 && !ch3 && !ch4 {
			break
		}
	}
	return w
}

// refUses returns, for each body index, the list of consumer indices
// (register and memory dependences).
func refUses(body []pthread.BodyInst) [][]int {
	u := make([][]int, len(body))
	for i, bi := range body {
		for _, d := range bi.Dep {
			if d >= 0 {
				u[d] = append(u[d], i)
			}
		}
		if bi.MemDep >= 0 {
			u[bi.MemDep] = append(u[bi.MemDep], i)
		}
	}
	return u
}

func refRegWrittenBetween(body []pthread.BodyInst, from, to int, r isa.Reg) bool {
	for i := from + 1; i < to; i++ {
		if body[i].Inst.HasDest() && body[i].Inst.Rd == r {
			return true
		}
	}
	return false
}

func refStoreLoadElim(body []pthread.BodyInst) bool {
	changed := false
	for j := 0; j < len(body)-1; j++ {
		bi := &body[j]
		if bi.Inst.Op != isa.LD || bi.MemDep < 0 {
			continue
		}
		st := body[bi.MemDep]
		if st.Inst.Op != isa.ST {
			continue
		}
		data := st.Inst.Rs2
		if refRegWrittenBetween(body, bi.MemDep, j, data) {
			continue // the forwarded name is clobbered; unsafe to rename
		}
		bi.Inst = isa.Inst{Op: isa.MOV, Rd: bi.Inst.Rd, Rs1: data}
		bi.Dep = [2]int{st.Dep[1], pthread.DepLiveIn} // the store's data producer
		bi.MemDep = pthread.DepLiveIn
		changed = true
	}
	return changed
}

// refConstantFold collapses LI->ADDI and ADDI->ADDI chains where the
// producer has a single consumer, rebuilding the consumer lists after every
// fold.
func refConstantFold(body []pthread.BodyInst) bool {
	changed := false
	for {
		u := refUses(body)
		folded := false
		for j, bi := range body {
			if bi.Inst.Op != isa.ADDI {
				continue
			}
			p := bi.Dep[0]
			if p < 0 || len(u[p]) != 1 {
				continue
			}
			prod := body[p]
			switch prod.Inst.Op {
			case isa.LI:
				body[j].Inst = isa.Inst{Op: isa.LI, Rd: bi.Inst.Rd, Imm: prod.Inst.Imm + bi.Inst.Imm}
				body[j].Dep = [2]int{pthread.DepLiveIn, pthread.DepLiveIn}
				body[p].Inst = isa.Inst{Op: isa.NOP}
				body[p].Dep = [2]int{pthread.DepLiveIn, pthread.DepLiveIn}
				folded = true
			case isa.ADDI:
				// Need the producer's source name live at j.
				if refRegWrittenBetween(body, p, j, prod.Inst.Rs1) {
					continue
				}
				body[j].Inst = isa.Inst{
					Op: isa.ADDI, Rd: bi.Inst.Rd, Rs1: prod.Inst.Rs1,
					Imm: prod.Inst.Imm + bi.Inst.Imm,
				}
				body[j].Dep = [2]int{prod.Dep[0], pthread.DepLiveIn}
				body[p].Inst = isa.Inst{Op: isa.NOP}
				body[p].Dep = [2]int{pthread.DepLiveIn, pthread.DepLiveIn}
				folded = true
			}
			if folded {
				break // recompute uses after each fold
			}
		}
		if !folded {
			return changed
		}
		changed = true
	}
}

func refMoveElim(body []pthread.BodyInst) bool {
	changed := false
	for j, bi := range body {
		if bi.Inst.Op != isa.MOV {
			continue
		}
		src := bi.Inst.Rs1
		for u := j + 1; u < len(body); u++ {
			c := &body[u]
			srcs, ns := c.Inst.Sources()
			for s := 0; s < ns; s++ {
				if c.Dep[s] != j {
					continue
				}
				if refRegWrittenBetween(body, j, u, src) {
					continue
				}
				// Rename operand s of the consumer to the move's source.
				switch s {
				case 0:
					c.Inst.Rs1 = src
				case 1:
					c.Inst.Rs2 = src
				}
				_ = srcs
				c.Dep[s] = bi.Dep[0]
				changed = true
			}
		}
	}
	return changed
}

func refDeadCodeElim(body []pthread.BodyInst) ([]pthread.BodyInst, bool) {
	if len(body) == 0 {
		return body, false
	}
	live := make([]bool, len(body))
	var mark func(i int)
	mark = func(i int) {
		if i < 0 || live[i] {
			return
		}
		live[i] = true
		for _, d := range body[i].Dep {
			mark(d)
		}
		mark(body[i].MemDep)
	}
	mark(len(body) - 1)
	// NOPs are never live even if referenced (folded producers).
	for i := range body {
		if body[i].Inst.Op == isa.NOP {
			live[i] = false
		}
	}
	remap := make([]int, len(body))
	out := body[:0]
	n := 0
	for i, bi := range body {
		if live[i] {
			remap[i] = n
			out = append(out, bi)
			n++
		} else {
			remap[i] = -1
		}
	}
	changed := n != len(body)
	fix := func(d int) int {
		if d < 0 {
			return d
		}
		if remap[d] < 0 {
			return pthread.DepLiveIn // producer dropped; value must come from seeds
		}
		return remap[d]
	}
	for i := range out {
		out[i].Dep[0] = fix(out[i].Dep[0])
		out[i].Dep[1] = fix(out[i].Dep[1])
		out[i].MemDep = fix(out[i].MemDep)
	}
	return out, changed
}

// sameResult fails t unless got and want select the same p-threads with the
// same prediction.
func sameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	if !reflect.DeepEqual(got.PThreads, want.PThreads) {
		t.Errorf("%s: p-threads differ from the reference: got %d, want %d", what, len(got.PThreads), len(want.PThreads))
	}
	if got.Pred != want.Pred {
		t.Errorf("%s: prediction %+v, reference %+v", what, got.Pred, want.Pred)
	}
}

// TestSelectMatchesReference requires SelectForest and SelectRegions to
// select exactly what the frozen reference selects: over the ten workloads
// profiled on short and default-sized windows, whole-run and per-region,
// with optimization and merging each on and off, and on the paper's
// pharmacy tree.
func TestSelectMatchesReference(t *testing.T) {
	for _, opt := range []bool{true, false} {
		for _, merge := range []bool{true, false} {
			opts := paperOpts()
			opts.Params.Optimize, opts.Merge = opt, merge
			what := fmt.Sprintf("pharmacy opt=%v merge=%v", opt, merge)
			sameResult(t, what, SelectForest(paperForest(), opts), refSelectForest(paperForest(), opts))
		}
	}

	selected := 0
	for _, w := range workload.All() {
		prog := w.Build(1)
		for _, window := range []int64{1000, 30_000} {
			for _, regionInsts := range []int64{0, 5000} {
				regions, err := slice.Profile(prog, slice.ProfileOptions{
					WarmInsts: 10_000, MaxInsts: window, RegionInsts: regionInsts,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, opt := range []bool{true, false} {
					for _, merge := range []bool{true, false} {
						opts := Options{Params: advantage.DefaultParams(1), Merge: merge}
						opts.Params.Optimize = opt
						what := fmt.Sprintf("%s window=%d region=%d opt=%v merge=%v", w.Name, window, regionInsts, opt, merge)
						got := SelectRegions(regions, opts)
						sameResult(t, what, got, refSelectRegions(regions, opts))
						selected += len(got.PThreads)
						if regionInsts == 0 {
							sameResult(t, what+" forest", SelectForest(regions[0].Forest, opts), refSelectForest(regions[0].Forest, opts))
						}
					}
				}
			}
		}
	}
	if selected == 0 {
		t.Fatal("no workload selected a p-thread; the comparison is vacuous")
	}
}
