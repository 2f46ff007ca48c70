// Package selector implements the paper's p-thread selection procedure
// (§3.2): per-slice-tree iterative selection with overlap-aware advantage
// reduction, whole-program (forest) selection, optional merging, and the
// diagnostic predictions that the validation experiments check against
// timing simulation (§4.3).
package selector

import (
	"sort"

	"preexec/internal/advantage"
	"preexec/internal/pthread"
	"preexec/internal/slice"
)

// Options configures a selection run.
type Options struct {
	Params advantage.Params
	// Merge enables merging of p-threads with matching dataflow prefixes.
	Merge bool
	// MergeMaxLen bounds merged p-thread length (0 = 2x Params.MaxLen).
	MergeMaxLen int
	// MaxIterations bounds the overlap-correction fixed point (default 10).
	MaxIterations int
}

func (o Options) mergeMaxLen() int {
	if o.MergeMaxLen > 0 {
		return o.MergeMaxLen
	}
	ml := o.Params.MaxLen
	if ml <= 0 {
		ml = 32
	}
	return 2 * ml
}

func (o Options) maxIterations() int {
	if o.MaxIterations > 0 {
		return o.MaxIterations
	}
	return 10
}

// Prediction is the model's forecast of a p-thread set's dynamic behaviour —
// the "Predict" block of the paper's Table 2.
type Prediction struct {
	PThreads        int     // static p-threads selected
	Launches        int64   // dynamic p-threads launched (Σ DCtrig)
	MissesCovered   int64   // L2 misses pre-executed (Σ DCptcm)
	MissesFullCov   int64   // misses whose full latency is hidden
	InstsPerPThread float64 // mean dynamic p-thread length
	OverheadCycles  float64 // Σ OHagg
	LTCycles        float64 // Σ LTagg after overlap reduction
	ADVagg          float64 // net predicted cycles saved
}

// Result is a completed selection.
type Result struct {
	PThreads []*pthread.PThread
	Pred     Prediction
}

// selected is one chosen candidate inside a tree.
type selected struct {
	path  []*slice.Node // root .. trigger (owned copy)
	score advantage.Score
	// adjusted is the advantage after overlap reductions.
	adjusted float64
}

func (s *selected) trigger() *slice.Node { return s.path[len(s.path)-1] }

// isAncestorOf reports whether a's trigger node is a proper ancestor of b's
// trigger node — the only possible source of overlap between two p-threads
// in a slice tree (paper §3.2). Shared prefixes share *slice.Node pointers,
// so ancestry is pointer membership on the deeper path.
func (s *selected) isAncestorOf(b *selected) bool {
	if len(s.path) >= len(b.path) {
		return false
	}
	return b.path[len(s.path)-1] == s.trigger()
}

// SelectTree solves one slice tree: the set of p-threads whose aggregate
// advantages — with parent/child double-counted latency tolerance subtracted
// — sum to a maximum. It follows the paper's iterative procedure: select the
// best candidate per leaf path independently, reduce overlapping parents'
// advantages, and reselect until stable.
func SelectTree(tree *slice.Tree, dctrig map[int]int64, opts Options) []*selected {
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

	// A trigger node's root-to-node path is unique in the tree and ScorePath
	// depends only on its arguments, so each node is scored once: leaves
	// sharing a prefix, and every iteration, reuse the score.
	type scored struct {
		score advantage.Score
		ok    bool
	}
	memo := make(map[*slice.Node]scored)
	score := func(path []*slice.Node) scored {
		n := path[len(path)-1]
		sc, hit := memo[n]
		if !hit {
			sc.score, sc.ok = advantage.ScorePath(path, dctrig, opts.Params)
			memo[n] = sc
		}
		return sc
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
				sc := score(leaf[:l])
				if !sc.ok {
					continue
				}
				adj := sc.score.ADVagg - float64(reduce[leaf[l-1]])*sc.score.LT
				if adj <= 0 {
					continue
				}
				if best == nil || adj > best.adjusted {
					best = &selected{path: leaf[:l:l], score: sc.score, adjusted: adj}
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

func sameSelection(a, b *selected) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.trigger() == b.trigger()
}

// SelectForest selects p-threads for a whole program sample.
func SelectForest(forest *slice.Forest, opts Options) Result {
	var all []*selected
	for _, root := range forest.SortedRoots() {
		all = append(all, SelectTree(forest.Trees[root], forest.DCtrig, opts)...)
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

// SelectRegions runs selection independently per profiled region (selection
// granularity, paper §4.4), stamping each p-thread with its region so the
// timing simulator only launches it there.
func SelectRegions(regions []slice.Region, opts Options) Result {
	var pts []*pthread.PThread
	for _, r := range regions {
		res := SelectForest(r.Forest, opts)
		if len(regions) > 1 {
			// Gate launches to the region the p-threads were selected for.
			// A single whole-run region stays unrestricted so the p-threads
			// can be reused on other samples (paper §4.4, Figure 7).
			for _, pt := range res.PThreads {
				pt.RegionStart, pt.RegionEnd = r.Start, r.End
			}
		}
		pts = append(pts, res.PThreads...)
	}
	return Result{PThreads: pts, Pred: predict(pts)}
}

func predict(pts []*pthread.PThread) Prediction {
	var p Prediction
	p.PThreads = len(pts)
	var instSum float64
	for _, pt := range pts {
		p.Launches += pt.DCtrig
		p.MissesCovered += pt.DCptcm
		if pt.FullCov {
			p.MissesFullCov += pt.DCptcm
		}
		p.OverheadCycles += pt.OH * float64(pt.DCtrig)
		p.LTCycles += pt.LT * float64(pt.DCptcm)
		p.ADVagg += pt.ADVagg
		instSum += float64(pt.Size()) * float64(pt.DCtrig)
	}
	if p.Launches > 0 {
		p.InstsPerPThread = instSum / float64(p.Launches)
	}
	return p
}

// PredictIPC converts a prediction into the model's IPC forecast for a
// sample of insts instructions whose unassisted IPC is baseIPC: the paper's
// serial-miss assumption translates saved cycles one for one into execution
// time (this is the assumption §4.3 identifies as the model's main source
// of IPC over-estimation). The forecast is bounded by the machine's
// sequencing width — no p-thread set can beat the front end.
func PredictIPC(pred Prediction, insts int64, baseIPC, width float64) float64 {
	if insts == 0 || baseIPC <= 0 {
		return 0
	}
	if width <= 0 {
		width = 8
	}
	baseCycles := float64(insts) / baseIPC
	cycles := baseCycles - pred.ADVagg
	if floor := float64(insts) / width; cycles < floor {
		cycles = floor
	}
	return float64(insts) / cycles
}
