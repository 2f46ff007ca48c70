// Package lint is preexeclint: a suite of custom static analyzers enforcing
// the invariants this repo's tests can only observe dynamically — bit-exact
// determinism of the evaluation pipeline, context cancellation through hot
// paths, lock-scope discipline around blocking operations, sentinel-error
// hygiene, and the documented zero-Config pitfall. The analyzers run over
// type-checked packages via the stdlib-only framework in internal/lint/
// analysis and internal/lint/load; cmd/preexeclint is the multichecker
// driver wired into CI.
//
// # Suppressing a finding
//
// A finding can be silenced with a justified ignore directive on the flagged
// line or the line directly above it:
//
//	//lint:ignore <analyzer> <justification>
//
// The justification is mandatory: a bare //lint:ignore directive is itself
// reported as a finding. Suppressions are for invariant-preserving
// exceptions (e.g. a callback contractually serialized under its mutex), not
// for postponing fixes.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"preexec/internal/lint/analysis"
)

// Analyzers returns the full preexeclint suite in reporting order: the five
// per-package analyzers followed by the three whole-program analyzers
// (Analyzer.RunModule set) that need every package at once.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism,
		CtxLoop,
		LockScope,
		ErrWrap,
		ConfigZero,
		DetFlow,
		Goroutine,
		AllocBudget,
	}
}

// DeterministicScope lists the packages whose output must be bit-for-bit
// reproducible — the determinism analyzer runs only on these. The values
// optionally restrict the check to specific files within the package (nil =
// every file); the root package's reproducibility surface is its
// configuration, its report rendering, and the engine's orchestration of
// the pipeline stages.
var DeterministicScope = map[string][]string{
	"preexec":                    {"report.go", "config.go", "engine.go"},
	"preexec/internal/frontend":  nil,
	"preexec/internal/timing":    nil,
	"preexec/internal/slice":     nil,
	"preexec/internal/selector":  nil,
	"preexec/internal/advantage": nil,
	"preexec/internal/fleet":     nil,
	// internal/obs sits inside deterministic call paths (fleet counters,
	// the engine's stage observer), so its rendering and ID generation are
	// in scope. clock.go is deliberately excluded: it is the one sanctioned
	// wall-clock seam, carrying its own justified detflow suppression at
	// the single time.Now call — scoping it here would double-report the
	// same, already-audited read.
	"preexec/internal/obs":      {"obs.go", "metrics.go", "trace.go"},
	"preexec/internal/pthread":  nil,
	"preexec/internal/stats":    nil,
	"preexec/internal/sweepio":  nil,
	"preexec/internal/workload": nil,
	"preexec/synth":             nil,
}

// ignoreRe matches a suppression directive: analyzer name(s), then the
// mandatory justification.
var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+([A-Za-z][A-Za-z0-9_,]*)\s*(.*)$`)

// Suppression is one parsed //lint:ignore directive.
type Suppression struct {
	File      string
	Line      int // the directive's own line
	Analyzers []string
	Justified bool
	Pos       token.Pos
	used      bool
}

// Suppressions extracts every //lint:ignore directive from files.
func Suppressions(fset *token.FileSet, files []*ast.File) []*Suppression {
	var out []*Suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, &Suppression{
					File:      pos.Filename,
					Line:      pos.Line,
					Analyzers: strings.Split(m[1], ","),
					Justified: strings.TrimSpace(m[2]) != "",
					Pos:       c.Pos(),
				})
			}
		}
	}
	return out
}

func (s *Suppression) covers(analyzer string) bool {
	for _, a := range s.Analyzers {
		if a == analyzer {
			return true
		}
	}
	return false
}

// Filter drops diagnostics suppressed by a justified directive on the same
// line or the line above, and appends a finding for every directive that is
// missing its justification. It returns the surviving diagnostics sorted by
// position.
func Filter(fset *token.FileSet, sups []*Suppression, diags []analysis.Diagnostic) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		suppressed := false
		for _, s := range sups {
			if s.File != pos.Filename || !s.covers(d.Category) {
				continue
			}
			if s.Line == pos.Line || s.Line == pos.Line-1 {
				s.used = true
				if s.Justified {
					suppressed = true
				}
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, s := range sups {
		if s.used && !s.Justified {
			out = append(out, analysis.Diagnostic{
				Pos:      s.Pos,
				Category: "lintdirective",
				Message:  "//lint:ignore directive needs a justification after the analyzer name",
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// ---- shared type/AST helpers used by the analyzers ----

// errorIface is the universe error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// funcObj resolves a call's callee to its *types.Func, nil for builtins,
// conversions, and function-typed values.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name (methods excluded).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	f := funcObj(info, call)
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == pkgPath &&
		f.Name() == name && f.Type().(*types.Signature).Recv() == nil
}

// namedFrom reports whether t (after pointer indirection) is the named type
// pkgPath.name, returning the dereferenced named type.
func namedFrom(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// usesObject reports whether any identifier under node resolves to one of
// objs. Function-literal subtrees are included: a closure capturing the
// object still references it.
func usesObject(info *types.Info, node ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && objs[info.Uses[id]] {
			found = true
		}
		return true
	})
	return found
}

// walkFuncs visits every function body under root — declarations and
// literals — calling fn with the enclosing *ast.FuncType and body. Nested
// literals are visited in their own right.
func walkFuncs(root ast.Node, fn func(ft *ast.FuncType, body *ast.BlockStmt)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d.Type, d.Body)
			}
		case *ast.FuncLit:
			fn(d.Type, d.Body)
		}
		return true
	})
}

// isBuiltin reports whether id resolves to the named universe builtin.
func isBuiltin(info *types.Info, id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

// inspectShallow walks node but does not descend into nested function
// literals (their bodies execute in another dynamic context).
func inspectShallow(node ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}
