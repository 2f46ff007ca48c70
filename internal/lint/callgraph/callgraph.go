// Package callgraph constructs a whole-program call graph over the packages
// type-checked by internal/lint/load, for the interprocedural preexeclint
// analyzers (detflow, goroutine). The graph is built from three edge kinds:
//
//   - Static: a call whose callee resolves to a declared function or a
//     method on a concrete receiver.
//   - Devirtualized: a call through an interface method, expanded to every
//     concrete method among the analyzed packages whose receiver type
//     implements the interface (method-set-based devirtualization — the
//     class-hierarchy treatment restricted to interface dispatch, which is
//     the only dynamic dispatch the Engine/Stage plumbing uses).
//   - Reference: a function or method value that escapes as data (passed as
//     a callback, assigned to a field). The referent is assumed callable
//     from the referencing function — sound for the repo's callback shapes
//     (progress hooks, probe functions, memo computes) at the cost
//     of an edge for references that are never invoked.
//
// Function literals are attributed to their lexically enclosing declared
// function: a closure's calls become the encloser's edges. That is the
// conservative direction for reachability analyses — whoever can run the
// closure was given it by the encloser.
//
// Edges may target functions with no body in the analyzed set (stdlib,
// export-data-only dependencies); such callees are legal edge endpoints but
// have no Node and are not traversed. Generic functions and methods are
// normalized to their origin (uninstantiated) object, so every
// instantiation shares one node.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"

	"preexec/internal/lint/analysis"
)

// EdgeKind classifies how a call edge was discovered.
type EdgeKind int

const (
	// Static is a direct call to a declared function or concrete method.
	Static EdgeKind = iota
	// Devirtualized is an interface-method call expanded to a concrete
	// implementation by method-set analysis.
	Devirtualized
	// Reference is a function value escaping as data rather than being
	// called at the reference site.
	Reference
)

func (k EdgeKind) String() string {
	switch k {
	case Static:
		return "static"
	case Devirtualized:
		return "devirtualized"
	case Reference:
		return "reference"
	}
	return "unknown"
}

// Edge is one caller→callee relationship at a source position.
type Edge struct {
	Caller *types.Func
	Callee *types.Func
	Pos    token.Pos
	Kind   EdgeKind
}

// Node is one declared function with a body in the analyzed packages.
type Node struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Unit *analysis.PackageUnit
	// Out lists the node's outgoing edges in source order (deterministic:
	// files in load order, positions ascending within a file).
	Out []Edge
}

// Graph is the whole-program call graph.
type Graph struct {
	Fset *token.FileSet
	// Nodes maps each declared function (origin object for generics) to its
	// node. Edge callees without bodies have no entry here.
	Nodes map[*types.Func]*Node
	// order lists nodes deterministically (package load order, then source
	// order) for reproducible traversals independent of map iteration.
	order []*Node
}

// NodesInOrder returns every node in deterministic (package, position)
// order.
func (g *Graph) NodesInOrder() []*Node { return g.order }

// Lookup finds the node for f (normalized to its generic origin), nil if f
// has no body in the analyzed packages.
func (g *Graph) Lookup(f *types.Func) *Node {
	if f == nil {
		return nil
	}
	return g.Nodes[f.Origin()]
}

// Build constructs the graph over units. All units must share fset.
func Build(fset *token.FileSet, units []*analysis.PackageUnit) *Graph {
	g := &Graph{Fset: fset, Nodes: map[*types.Func]*Node{}}

	// Pass 1: index every declared function with a body.
	for _, u := range units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Func: obj.Origin(), Decl: fd, Unit: u}
				g.Nodes[n.Func] = n
				g.order = append(g.order, n)
			}
		}
	}

	// Pass 2: collect the concrete named types available as devirtualization
	// targets — every non-interface named type declared in the analyzed
	// packages (their pointer method sets are considered too).
	var concrete []types.Type
	for _, u := range units {
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if types.IsInterface(t) {
				continue
			}
			concrete = append(concrete, t)
		}
	}

	// Pass 3: edges.
	for _, n := range g.order {
		n.Out = collectEdges(n, concrete)
	}
	return g
}

// collectEdges walks n's body (nested function literals included — they are
// attributed to n) and resolves every call and function reference.
func collectEdges(n *Node, concrete []types.Type) []Edge {
	info := n.Unit.Info
	var out []Edge
	add := func(callee *types.Func, pos token.Pos, kind EdgeKind) {
		if callee == nil {
			return
		}
		out = append(out, Edge{Caller: n.Func, Callee: callee.Origin(), Pos: pos, Kind: kind})
	}

	// calleeIdents records the identifiers that are the operator of a call,
	// so the reference scan below does not double-count them.
	calleeIdents := map[*ast.Ident]bool{}

	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			calleeIdents[fun] = true
			if f, ok := info.Uses[fun].(*types.Func); ok {
				add(f, call.Pos(), Static)
			}
		case *ast.SelectorExpr:
			calleeIdents[fun.Sel] = true
			f, ok := info.Uses[fun.Sel].(*types.Func)
			if !ok {
				break
			}
			if iface := interfaceRecv(f); iface != nil {
				for _, impl := range implementations(iface, f.Name(), concrete) {
					add(impl, call.Pos(), Devirtualized)
				}
			} else {
				add(f, call.Pos(), Static)
			}
		}
		return true
	})

	// Reference scan: any remaining identifier resolving to a function is a
	// function value escaping as data.
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok || calleeIdents[id] {
			return true
		}
		f, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if iface := interfaceRecv(f); iface != nil {
			for _, impl := range implementations(iface, f.Name(), concrete) {
				add(impl, id.Pos(), Reference)
			}
			return true
		}
		add(f, id.Pos(), Reference)
		return true
	})
	return out
}

// interfaceRecv returns f's receiver interface if f is an interface method,
// nil otherwise.
func interfaceRecv(f *types.Func) *types.Interface {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}

// implementations returns the concrete methods named name on every type in
// concrete (value or pointer method set) that implements iface.
func implementations(iface *types.Interface, name string, concrete []types.Type) []*types.Func {
	var out []*types.Func
	for _, t := range concrete {
		var impl types.Type
		switch {
		case types.Implements(t, iface):
			impl = t
		case types.Implements(types.NewPointer(t), iface):
			impl = types.NewPointer(t)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, nil, name)
		if m, ok := obj.(*types.Func); ok {
			out = append(out, m)
		}
	}
	return out
}

// ReachableFrom runs a breadth-first traversal from roots (in the given
// order) and returns the visited nodes plus, for every function first
// reached through an edge, that discovering edge — enough to reconstruct one
// shortest call chain back to a root with Chain. Roots with no node are
// skipped. The traversal is deterministic: queue order follows root order
// and each node's source-ordered edge list.
func (g *Graph) ReachableFrom(roots []*types.Func) (visited map[*types.Func]bool, parents map[*types.Func]Edge) {
	visited = map[*types.Func]bool{}
	parents = map[*types.Func]Edge{}
	var queue []*Node
	for _, r := range roots {
		if r == nil {
			continue
		}
		r = r.Origin()
		if n := g.Nodes[r]; n != nil && !visited[r] {
			visited[r] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if visited[e.Callee] {
				continue
			}
			visited[e.Callee] = true
			parents[e.Callee] = e
			if next := g.Nodes[e.Callee]; next != nil {
				queue = append(queue, next)
			}
		}
	}
	return visited, parents
}

// Chain reconstructs the discovery path root → … → fn from a parents map
// produced by ReachableFrom. The result starts at a root and ends at fn; for
// a root itself the chain is just {fn}.
func Chain(parents map[*types.Func]Edge, fn *types.Func) []*types.Func {
	var rev []*types.Func
	for cur := fn.Origin(); ; {
		rev = append(rev, cur)
		e, ok := parents[cur]
		if !ok {
			break
		}
		cur = e.Caller
	}
	out := make([]*types.Func, len(rev))
	for i, f := range rev {
		out[len(rev)-1-i] = f
	}
	return out
}
