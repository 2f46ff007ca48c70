package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"preexec/internal/lint"
	"preexec/internal/lint/analysis"
	"preexec/internal/lint/analysistest"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.Determinism, "determinism")
}

func TestCtxLoop(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.CtxLoop, "ctxloop")
}

func TestLockScope(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.LockScope, "lockscope")
}

func TestErrWrap(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.ErrWrap, "errwrap")
}

func TestConfigZero(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.ConfigZero, "configzero")
}

// TestDetFlow runs the whole-program determinism analyzer over a fixture
// closure: sinks report only when reachable from a //lint:detroot-marked
// root, diagnostics carry the discovery chain, and reachability follows a
// function value handed across the package boundary (Reference edge) and
// an interface method call to its implementation (Devirtualized edge).
func TestDetFlow(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.DetFlow, "detflow")
}

// TestGoroutine checks the spawn-discipline analyzer against the repo's
// accepted spawn shapes (WaitGroup join, done-channel close/send, direct and
// transitive context bounds) and three fire-and-forget variants.
func TestGoroutine(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.Goroutine, "goroutine")
}

// TestSuppression proves a justified //lint:ignore silences exactly the
// directive's line while identical unsuppressed code stays flagged.
func TestSuppression(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.ErrWrap, "suppress")
}

// TestFilterMultiAnalyzer: one comma-separated directive suppresses findings
// from every analyzer it names on its line, while a third analyzer's finding
// on the same line survives.
func TestFilterMultiAnalyzer(t *testing.T) {
	const src = `package p

func f() {
	//lint:ignore errwrap,lockscope callback is contractually serialized and compared by identity.
	_ = 1 + 1
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	tf := fset.File(f.Pos())
	diags := []analysis.Diagnostic{
		{Pos: tf.LineStart(5), Message: "identity comparison", Category: "errwrap"},
		{Pos: tf.LineStart(5), Message: "lock held across blocking call", Category: "lockscope"},
		{Pos: tf.LineStart(5), Message: "select misses ctx.Done", Category: "ctxloop"},
	}

	out := lint.Filter(fset, lint.Suppressions(fset, []*ast.File{f}), diags)
	if len(out) != 1 || out[0].Category != "ctxloop" {
		t.Fatalf("got %v, want only the ctxloop finding to survive the errwrap,lockscope directive", out)
	}
}

// TestFilterRequiresJustification checks the driver-level rule that a bare
// //lint:ignore does not suppress and is itself reported.
func TestFilterRequiresJustification(t *testing.T) {
	const src = `package p

func f() {
	//lint:ignore errwrap
	_ = 1 + 1
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	tf := fset.File(f.Pos())
	diag := analysis.Diagnostic{Pos: tf.LineStart(5), Message: "identity comparison", Category: "errwrap"}

	out := lint.Filter(fset, lint.Suppressions(fset, []*ast.File{f}), []analysis.Diagnostic{diag})
	if len(out) != 2 {
		t.Fatalf("got %d findings, want 2 (unsuppressed original + unjustified directive): %v", len(out), out)
	}
	cats := map[string]bool{}
	for _, d := range out {
		cats[d.Category] = true
	}
	if !cats["errwrap"] || !cats["lintdirective"] {
		t.Fatalf("findings %v missing errwrap original or lintdirective complaint", out)
	}
}

// TestFilterJustified is the happy path: a justified directive removes the
// finding and adds nothing.
func TestFilterJustified(t *testing.T) {
	const src = `package p

func f() {
	//lint:ignore errwrap the fixture needs identity here.
	_ = 1 + 1
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	tf := fset.File(f.Pos())
	diag := analysis.Diagnostic{Pos: tf.LineStart(5), Message: "identity comparison", Category: "errwrap"}

	out := lint.Filter(fset, lint.Suppressions(fset, []*ast.File{f}), []analysis.Diagnostic{diag})
	if len(out) != 0 {
		t.Fatalf("got %d findings, want 0: %v", len(out), out)
	}
}

// TestSuppressionWrongAnalyzer: a directive for one analyzer does not
// suppress another's finding on the same line.
func TestSuppressionWrongAnalyzer(t *testing.T) {
	const src = `package p

func f() {
	//lint:ignore lockscope held by contract.
	_ = 1 + 1
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	tf := fset.File(f.Pos())
	diag := analysis.Diagnostic{Pos: tf.LineStart(5), Message: "identity comparison", Category: "errwrap"}

	out := lint.Filter(fset, lint.Suppressions(fset, []*ast.File{f}), []analysis.Diagnostic{diag})
	if len(out) != 1 || out[0].Category != "errwrap" {
		t.Fatalf("got %v, want the errwrap finding to survive a lockscope directive", out)
	}
}
