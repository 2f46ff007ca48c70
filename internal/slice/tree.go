package slice

import (
	"fmt"
	"sort"
	"strings"

	"preexec/internal/isa"
)

// Node is one slice-tree node. Each node represents the static p-thread
// whose trigger is this node's instruction and whose body is the path from
// this node (exclusive) back to the root (inclusive) — i.e. the slice
// instructions dynamically after the trigger (paper §3.2; matches the
// worked example's candidate accounting).
type Node struct {
	PC int      `json:"pc"`
	Op isa.Inst `json:"op"`
	// Depth is the node's distance from the root (root = 0). A node at
	// depth k is a trigger whose p-thread body has k instructions.
	Depth int `json:"depth"`
	// DCptcm counts the dynamic miss computations that pass through this
	// node: the number of misses a p-thread triggered here would pre-execute.
	DCptcm int64 `json:"dc_ptcm"`
	// SumDist accumulates the main-thread trigger distance (root.Seq -
	// trigger.Seq) over instances; AvgDist = SumDist/DCptcm is the paper's
	// DISTpl-derived average trigger distance.
	SumDist int64 `json:"sum_dist"`
	// DepPos/MemDepPos describe the instruction's producers as positions on
	// the root path (first-seen instance wins; see Backward).
	DepPos    [2]int `json:"dep_pos"`
	MemDepPos int    `json:"mem_dep_pos"`

	Children []*Node `json:"children,omitempty"`
}

// AvgDist returns the mean main-thread distance from trigger to miss.
func (n *Node) AvgDist() float64 {
	if n.DCptcm == 0 {
		return 0
	}
	return float64(n.SumDist) / float64(n.DCptcm)
}

func (n *Node) child(pc int) *Node {
	for _, c := range n.Children {
		if c.PC == pc {
			return c
		}
	}
	return nil
}

// Tree is the slice tree of one static problem load.
type Tree struct {
	RootPC int   `json:"root_pc"`
	Misses int64 `json:"misses"` // dynamic miss slices inserted
	Root   *Node `json:"root"`
}

// NewTree creates a tree for the load at rootPC.
func NewTree(rootPC int, op isa.Inst) *Tree {
	return &Tree{
		RootPC: rootPC,
		Root: &Node{
			PC: rootPC, Op: op, Depth: 0,
			DepPos: [2]int{NoDep, NoDep}, MemDepPos: NoDep,
		},
	}
}

// Insert adds one dynamic backward slice (as produced by Slicer.Backward,
// position 0 = the root load) to the tree, updating counts along the path.
func (t *Tree) Insert(sl []Inst) {
	if len(sl) == 0 || sl[0].PC != t.RootPC {
		return
	}
	t.Misses++
	node := t.Root
	node.adoptDeps(&sl[0])
	node.DCptcm++
	for i := 1; i < len(sl); i++ {
		si := &sl[i]
		c := node.child(si.PC)
		if c == nil {
			c = &Node{
				PC: si.PC, Op: si.Op, Depth: i,
				DepPos: si.DepPos, MemDepPos: si.MemDepPos,
			}
			node.Children = append(node.Children, c)
		}
		c.adoptDeps(si)
		c.DCptcm++
		c.SumDist += si.Dist
		node = c
	}
}

// adoptDeps refines a node's dependence structure: slices whose producers
// fell outside the slicing scope (or before observation started) report
// NoDep; a later instance that does see the producer fills the hole in.
func (n *Node) adoptDeps(si *Inst) {
	for k := 0; k < 2; k++ {
		if n.DepPos[k] == NoDep && si.DepPos[k] != NoDep {
			n.DepPos[k] = si.DepPos[k]
		}
	}
	if n.MemDepPos == NoDep && si.MemDepPos != NoDep {
		n.MemDepPos = si.MemDepPos
	}
}

// Walk visits every node (preorder, root first) with the path from the root
// to the node inclusive. The path slice is reused between calls; callers
// must copy it if they retain it.
func (t *Tree) Walk(fn func(path []*Node)) {
	var rec func(n *Node, path []*Node)
	rec = func(n *Node, path []*Node) {
		path = append(path, n)
		fn(path)
		for _, c := range n.Children {
			rec(c, path)
		}
	}
	rec(t.Root, nil)
}

// Nodes returns the total node count.
func (t *Tree) Nodes() int {
	n := 0
	t.Walk(func([]*Node) { n++ })
	return n
}

// CheckInvariant verifies the paper's structural invariant: a parent's
// DCptcm equals the sum of its children's DCptcm plus the number of slices
// that terminated at the parent (which is non-negative). It returns an error
// naming the first violating node.
func (t *Tree) CheckInvariant() error {
	var err error
	t.Walk(func(path []*Node) {
		if err != nil {
			return
		}
		n := path[len(path)-1]
		var sum int64
		for _, c := range n.Children {
			sum += c.DCptcm
		}
		if sum > n.DCptcm {
			err = fmt.Errorf("node pc=%d depth=%d: children DCptcm %d exceeds parent %d",
				n.PC, n.Depth, sum, n.DCptcm)
		}
	})
	return err
}

// String renders the tree as an indented listing (for debugging and the
// pharmacy example).
func (t *Tree) String() string {
	var b strings.Builder
	t.Walk(func(path []*Node) {
		n := path[len(path)-1]
		fmt.Fprintf(&b, "%s#%02d %-22s DCptcm=%-5d avgDist=%.1f\n",
			strings.Repeat("  ", n.Depth), n.PC, n.Op.String(), n.DCptcm, n.AvgDist())
	})
	return b.String()
}

// Forest is the full profiling result for one program sample: one slice tree
// per static problem load plus the sample-wide statistics the selection
// framework needs.
type Forest struct {
	Trees map[int]*Tree `json:"trees"`
	// DCtrig is the dynamic execution count of every static instruction in
	// the sample (trigger launch counts).
	DCtrig map[int]int64 `json:"dc_trig"`
	// Insts is the number of dynamic instructions in the sample.
	Insts int64 `json:"insts"`
	// Loads and L2Misses summarize the sample's memory behaviour.
	Loads    int64 `json:"loads"`
	L2Misses int64 `json:"l2_misses"`
}

// NewForest returns an empty forest.
func NewForest() *Forest {
	return &Forest{Trees: make(map[int]*Tree), DCtrig: make(map[int]int64)}
}

// NewForestSized returns an empty forest whose maps are pre-sized for the
// given tree and trigger counts — regioned profiling sizes each region's
// forest from the previous region's, since consecutive regions of a program
// touch similar static instruction sets.
func NewForestSized(trees, trigs int) *Forest {
	return &Forest{Trees: make(map[int]*Tree, trees), DCtrig: make(map[int]int64, trigs)}
}

// TreeFor returns (creating if needed) the tree rooted at the given load.
func (f *Forest) TreeFor(pc int, op isa.Inst) *Tree {
	t := f.Trees[pc]
	if t == nil {
		t = NewTree(pc, op)
		f.Trees[pc] = t
	}
	return t
}

// SortedRoots returns the root PCs in ascending order (deterministic
// iteration for selection and reporting).
func (f *Forest) SortedRoots() []int {
	roots := make([]int, 0, len(f.Trees))
	for pc := range f.Trees {
		roots = append(roots, pc)
	}
	sort.Ints(roots)
	return roots
}
