package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"preexec/internal/lint/analysis"
)

// AllocBudget turns the zero-alloc property of the timing hot path into
// a CI-failing static gate: it drives the compiler's escape analysis
// (`go build -gcflags='-m -m'`) over each budgeted package — the timing
// backend and the front end that feeds it — and diffs the heap-escape
// diagnostics attributed to the hot-path functions against the checked-in
// budget (internal/lint/testdata/allocbudget.json). A new escape
// in a hot function fails immediately — before any benchmark runs — instead
// of surfacing later as allocs/op drift in the micro-benchmarks'
// TestAllocCeilings checks. Amortized allocations the hot path legitimately
// performs (arena chunk growth, ring doubling) are recorded in the budget;
// `preexeclint -update-allocbudget` regenerates the recorded escapes after
// an intentional change.
//
// Attribution uses the package's ASTs: each diagnostic's (file, line) is
// mapped to its innermost enclosing function declaration, so inlined
// allocations — which the compiler reports at the inlining site — charge the
// hot function that actually pays them at run time.
var AllocBudget = &analysis.Analyzer{
	Name: "allocbudget", // keep in sync with the Category literals below

	Doc: "diffs compiler escape-analysis diagnostics for the timing and front-end hot paths " +
		"against the checked-in budget, failing on any new heap escape in a " +
		"hot function",
	RunModule: runAllocBudget,
}

// AllocBudgetPath locates the budget file relative to the module root.
const AllocBudgetPath = "internal/lint/testdata/allocbudget.json"

// BudgetFile is the checked-in allocation budget: one Budget per budgeted
// package.
type BudgetFile struct {
	// Gcflags documents the escape-analysis invocation the budget was
	// generated with (informational).
	Gcflags  string    `json:"gcflags"`
	Packages []*Budget `json:"packages"`
}

// Budget is one package's allocation budget.
type Budget struct {
	// Package is the budgeted import path.
	Package string `json:"package"`
	// Hot lists the hot-path functions the gate covers, named as
	// (*types.Func).FullName with the package path stripped — e.g.
	// "(*replaySim).fetch", "busWait".
	Hot []string `json:"hot"`
	// Allowed maps each hot function to its budgeted escape messages,
	// sorted; a message occurring N times at distinct sites appears N times.
	Allowed map[string][]string `json:"allowed"`
}

// LoadBudget reads the budget file.
func LoadBudget(path string) (*BudgetFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f BudgetFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	for _, b := range f.Packages {
		if b.Allowed == nil {
			b.Allowed = map[string][]string{}
		}
	}
	return &f, nil
}

// Escape is one heap-escape diagnostic attributed to a function.
type Escape struct {
	File    string // base name, e.g. "replay.go"
	Line    int
	Col     int
	Message string // e.g. "make([]int32, c) escapes to heap"
	Func    string // enclosing function, "" for package scope
}

// escapeRe matches one compiler escape diagnostic. The path prefix varies
// with the directory the (possibly cached and replayed) compile ran from, so
// only the base file name is kept; at -m -m the message carries a trailing
// colon introducing the flow explanation, which is stripped.
var escapeRe = regexp.MustCompile(`^(.*[/\\])?([^/\\:]+\.go):(\d+):(\d+): (.*(?:escapes to heap|moved to heap.*?)):?$`)

// CollectEscapes runs the compiler's escape analysis over the package in dir
// and returns every heap-escape diagnostic, attributed to its enclosing
// function via the package's ASTs (fset/files from the lint loader). The go
// command replays cached compiler output, so repeated runs are cheap and
// deterministic.
func CollectEscapes(dir string, fset *token.FileSet, files []*ast.File) ([]Escape, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m -m", ".")
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m -m in %s: %v\n%s", dir, err, out.String())
	}
	index := newFuncIndex(fset, files)
	seen := map[Escape]bool{}
	var escapes []Escape
	for _, line := range strings.Split(out.String(), "\n") {
		m := escapeRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		e := Escape{File: m[2], Message: m[5]}
		fmt.Sscanf(m[3], "%d", &e.Line)
		fmt.Sscanf(m[4], "%d", &e.Col)
		e.Func = index.funcAt(e.File, e.Line)
		if !seen[e] { // -m -m can restate a site; count each site once
			seen[e] = true
			escapes = append(escapes, e)
		}
	}
	sort.Slice(escapes, func(i, j int) bool {
		if escapes[i].File != escapes[j].File {
			return escapes[i].File < escapes[j].File
		}
		if escapes[i].Line != escapes[j].Line {
			return escapes[i].Line < escapes[j].Line
		}
		return escapes[i].Col < escapes[j].Col
	})
	return escapes, nil
}

// funcIndex maps (file base name, line) to the enclosing function name.
type funcIndex struct {
	spans map[string][]funcSpan
}

type funcSpan struct {
	name       string
	start, end int // line range, inclusive
}

func newFuncIndex(fset *token.FileSet, files []*ast.File) *funcIndex {
	idx := &funcIndex{spans: map[string][]funcSpan{}}
	for _, f := range files {
		pos := fset.Position(f.Pos())
		base := filepath.Base(pos.Filename)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			idx.spans[base] = append(idx.spans[base], funcSpan{
				name:  declName(fd),
				start: fset.Position(fd.Pos()).Line,
				end:   fset.Position(fd.End()).Line,
			})
		}
	}
	return idx
}

func (x *funcIndex) funcAt(file string, line int) string {
	for _, s := range x.spans[file] {
		if line >= s.start && line <= s.end {
			return s.name
		}
	}
	return ""
}

// declName renders a function declaration the way the budget names it:
// "(*replaySim).fetch" for pointer-receiver methods, "(Config).withDefaults"
// for value receivers, "busWait" for package functions.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	var b strings.Builder
	b.WriteString("(")
	if star, ok := t.(*ast.StarExpr); ok {
		b.WriteString("*")
		t = star.X
	}
	switch e := t.(type) {
	case *ast.Ident:
		b.WriteString(e.Name)
	case *ast.IndexExpr: // generic receiver
		if id, ok := e.X.(*ast.Ident); ok {
			b.WriteString(id.Name)
		}
	case *ast.IndexListExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			b.WriteString(id.Name)
		}
	}
	b.WriteString(").")
	b.WriteString(fd.Name.Name)
	return b.String()
}

// CheckBudget diffs the collected escapes against the budget and returns the
// findings: a new escape in a hot function, a budgeted escape that no longer
// occurs (stale budget), or a hot function that no longer exists. Findings
// needing a position get one through lookupPos (nil = token.NoPos).
func CheckBudget(b *Budget, escapes []Escape, lookupPos func(file string, line int) token.Pos) []analysis.Diagnostic {
	hot := map[string]bool{}
	for _, h := range b.Hot {
		hot[h] = true
	}
	pos := func(file string, line int) token.Pos {
		if lookupPos == nil {
			return token.NoPos
		}
		return lookupPos(file, line)
	}

	// Group the hot functions' escapes.
	got := map[string][]string{}
	seenFunc := map[string]bool{}
	var diags []analysis.Diagnostic
	for _, e := range escapes {
		if e.Func != "" {
			seenFunc[e.Func] = true
		}
		if !hot[e.Func] {
			continue
		}
		got[e.Func] = append(got[e.Func], e.Message)
		if !budgetCovers(b.Allowed[e.Func], got[e.Func], e.Message) {
			diags = append(diags, analysis.Diagnostic{
				Pos:      pos(e.File, e.Line),
				Category: "allocbudget",
				Message: fmt.Sprintf("heap escape in hot function %s: %s — over the allocation budget; "+
					"the timing hot path must stay allocation-free (remove it, or run `preexeclint -update-allocbudget` and justify the new entry in review)", e.Func, e.Message),
			})
		}
	}

	// Stale budget entries: budgeted escapes that no longer occur keep the
	// gate honest — a silently shrunk budget would mask a later regression
	// of the same site.
	for _, h := range b.Hot {
		want := b.Allowed[h]
		have := append([]string(nil), got[h]...)
		sort.Strings(have)
		for _, msg := range missingFrom(want, have) {
			diags = append(diags, analysis.Diagnostic{
				Pos:      token.NoPos,
				Category: "allocbudget",
				Message: fmt.Sprintf("stale allocation budget: hot function %s no longer reports %q; "+
					"run `preexeclint -update-allocbudget` to record the improvement", h, msg),
			})
		}
	}
	return diags
}

// budgetCovers reports whether the budget still covers msg given that
// gotSoFar (which ends with msg) occurrences of the hot function's escapes
// have been seen — i.e. the count of msg seen so far does not exceed its
// budgeted count.
func budgetCovers(allowed, gotSoFar []string, msg string) bool {
	budgeted, seen := 0, 0
	for _, m := range allowed {
		if m == msg {
			budgeted++
		}
	}
	for _, m := range gotSoFar {
		if m == msg {
			seen++
		}
	}
	return seen <= budgeted
}

// missingFrom returns the elements of want (a multiset) not present in have
// (also a multiset, sorted).
func missingFrom(want, have []string) []string {
	remaining := append([]string(nil), have...)
	var missing []string
	for _, w := range want {
		found := false
		for i, h := range remaining {
			if h == w {
				remaining = append(remaining[:i], remaining[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, w)
		}
	}
	return missing
}

// UpdateBudget recomputes the Allowed map of every package's hot list in f
// from escapes (keyed by import path), preserving the hot lists
// themselves, and writes the result to path.
func UpdateBudget(path string, f *BudgetFile, escapes map[string][]Escape) error {
	for _, b := range f.Packages {
		hot := map[string]bool{}
		for _, h := range b.Hot {
			hot[h] = true
		}
		allowed := map[string][]string{}
		for _, e := range escapes[b.Package] {
			if hot[e.Func] {
				allowed[e.Func] = append(allowed[e.Func], e.Message)
			}
		}
		for _, msgs := range allowed {
			sort.Strings(msgs)
		}
		b.Allowed = allowed
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// ModuleRoot walks up from dir to the directory containing go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

func runAllocBudget(pass *analysis.ModulePass) (any, error) {
	var budgets *BudgetFile
	for _, unit := range BudgetedUnits(pass.Packages) {
		if budgets == nil {
			root, err := ModuleRoot(unit.Dir)
			if err != nil {
				return nil, err
			}
			if budgets, err = LoadBudget(filepath.Join(root, AllocBudgetPath)); err != nil {
				return nil, fmt.Errorf("allocbudget: %v (regenerate with `preexeclint -update-allocbudget`)", err)
			}
		}
		budget := budgets.For(unit.Path)
		if budget == nil {
			return nil, fmt.Errorf("allocbudget: %s lists no budget for %q", AllocBudgetPath, unit.Path)
		}
		escapes, err := CollectEscapes(unit.Dir, pass.Fset, unit.Files)
		if err != nil {
			return nil, err
		}
		lookup := posLookup(pass.Fset, unit.Files)
		for _, d := range CheckBudget(budget, escapes, lookup) {
			if d.Pos == token.NoPos {
				// Anchor position-less findings (stale entries) on the
				// package's first file so drivers can render file:line.
				d.Pos = unit.Files[0].Pos()
			}
			pass.Report(d)
		}
	}
	return nil, nil
}

// BudgetedPackages are the import paths the allocation budget gates: the
// timing backend and the front end that feeds it.
var BudgetedPackages = []string{"preexec/internal/frontend", "preexec/internal/timing"}

// BudgetedUnits returns the analyzed packages the budget gates, in
// BudgetedPackages order; packages outside the analyzed patterns are not
// gated.
func BudgetedUnits(units []*analysis.PackageUnit) []*analysis.PackageUnit {
	var out []*analysis.PackageUnit
	for _, path := range BudgetedPackages {
		for _, u := range units {
			if u.Path == path {
				out = append(out, u)
				break
			}
		}
	}
	return out
}

// For returns the budget of the package with the given import path, or nil.
func (f *BudgetFile) For(pkg string) *Budget {
	for _, b := range f.Packages {
		if b.Package == pkg {
			return b
		}
	}
	return nil
}

// posLookup resolves (base file name, line) to a token.Pos within files.
func posLookup(fset *token.FileSet, files []*ast.File) func(string, int) token.Pos {
	byBase := map[string]*token.File{}
	for _, f := range files {
		tf := fset.File(f.Pos())
		if tf != nil {
			byBase[filepath.Base(tf.Name())] = tf
		}
	}
	return func(file string, line int) token.Pos {
		tf := byBase[file]
		if tf == nil || line < 1 || line > tf.LineCount() {
			return token.NoPos
		}
		return tf.LineStart(line)
	}
}
