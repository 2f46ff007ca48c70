// Command preexeclint runs the repo's custom analyzer suite (internal/lint)
// over the module: the per-package analyzers (determinism, ctxloop,
// lockscope, errwrap, configzero) and the whole-program analyzers (detflow,
// goroutine, allocbudget) built on the internal/lint/callgraph engine. It is
// the static half of the invariant enforcement whose dynamic half is the
// golden/race/fuzz test layer, and runs in CI alongside go vet.
//
// Usage:
//
//	go run ./cmd/preexeclint ./...                # analyze the whole module
//	go run ./cmd/preexeclint -json ./...          # machine-readable findings
//	go run ./cmd/preexeclint -list                # describe the analyzers
//	go run ./cmd/preexeclint -update-allocbudget  # regenerate the hot-path
//	                                              # allocation budget
//
// Findings print as file:line:col: message (analyzer) — the format the
// repo's GitHub Actions problem matcher annotates PR diffs with — or, with
// -json, as a JSON array of objects {file, line, col, message, analyzer}.
// The exit status is 1 if any finding survives suppression filtering. A
// finding is suppressed by a //lint:ignore <analyzer> <justification>
// directive on the same line or the line above; the justification is
// mandatory, and one directive can cover several analyzers
// (//lint:ignore a,b reason).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"preexec/internal/lint"
	"preexec/internal/lint/analysis"
	"preexec/internal/lint/load"
)

func main() {
	listOnly := flag.Bool("list", false, "describe the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON instead of text")
	updateBudget := flag.Bool("update-allocbudget", false,
		"regenerate the recorded escapes in "+lint.AllocBudgetPath+" and exit")
	flag.Parse()

	if *listOnly {
		for _, a := range lint.Analyzers() {
			kind := "package"
			if a.RunModule != nil {
				kind = "module "
			}
			fmt.Printf("%-12s [%s] %s\n", a.Name, kind, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if *updateBudget {
		patterns = patterns[:0]
		for _, path := range lint.BudgetedPackages {
			patterns = append(patterns, "./"+strings.TrimPrefix(path, "preexec/"))
		}
	}

	pkgs, fset, err := load.Module(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "preexeclint:", err)
		os.Exit(2)
	}
	units := make([]*analysis.PackageUnit, len(pkgs))
	for i, p := range pkgs {
		units[i] = &analysis.PackageUnit{Path: p.Path, Dir: p.Dir, Files: p.Files, Pkg: p.Types, Info: p.Info}
	}

	if *updateBudget {
		if err := regenerateBudget(fset, units); err != nil {
			fmt.Fprintln(os.Stderr, "preexeclint:", err)
			os.Exit(2)
		}
		fmt.Println("preexeclint: regenerated", lint.AllocBudgetPath)
		return
	}

	var (
		diags []analysis.Diagnostic
		sups  []*lint.Suppression
	)
	sink := func(d analysis.Diagnostic) { diags = append(diags, d) }

	// Per-package analyzers.
	for i, pkg := range pkgs {
		for _, a := range lint.Analyzers() {
			if a.Run == nil {
				continue
			}
			files := pkg.Files
			if a == lint.Determinism {
				scoped, ok := deterministicFiles(fset, pkg)
				if !ok {
					continue
				}
				files = scoped
			}
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report:    sink,
			}
			if _, err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "preexeclint: %s on %s: %v\n", a.Name, pkg.Path, err)
				os.Exit(2)
			}
		}
		sups = append(sups, lint.Suppressions(fset, units[i].Files)...)
	}

	// Whole-program analyzers, sharing one artifact cache (the call graph is
	// built once).
	shared := analysis.NewShared()
	for _, a := range lint.Analyzers() {
		if a.RunModule == nil {
			continue
		}
		mp := (&analysis.ModulePass{
			Analyzer: a,
			Fset:     fset,
			Packages: units,
			Report:   sink,
		}).WithShared(shared)
		if _, err := a.RunModule(mp); err != nil {
			fmt.Fprintf(os.Stderr, "preexeclint: %s: %v\n", a.Name, err)
			os.Exit(2)
		}
	}

	surviving := lint.Filter(fset, sups, diags)
	if *jsonOut {
		writeJSON(fset, surviving)
	} else {
		for _, d := range surviving {
			fmt.Printf("%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Category)
		}
	}
	if len(surviving) > 0 {
		fmt.Fprintf(os.Stderr, "preexeclint: %d finding(s)\n", len(surviving))
		os.Exit(1)
	}
}

// jsonDiagnostic is the -json output shape, one object per finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
}

func writeJSON(fset *token.FileSet, diags []analysis.Diagnostic) {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		out = append(out, jsonDiagnostic{
			File:     pos.Filename,
			Line:     pos.Line,
			Col:      pos.Column,
			Message:  d.Message,
			Analyzer: d.Category,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "preexeclint:", err)
		os.Exit(2)
	}
}

// regenerateBudget recomputes the allocation budget's recorded escapes from
// a fresh escape-analysis run, preserving the hot-function lists.
func regenerateBudget(fset *token.FileSet, units []*analysis.PackageUnit) error {
	budgeted := lint.BudgetedUnits(units)
	if len(budgeted) != len(lint.BudgetedPackages) {
		return fmt.Errorf("-update-allocbudget: %d of the budgeted packages %v loaded", len(budgeted), lint.BudgetedPackages)
	}
	root, err := lint.ModuleRoot(budgeted[0].Dir)
	if err != nil {
		return err
	}
	path := filepath.Join(root, lint.AllocBudgetPath)
	budget, err := lint.LoadBudget(path)
	if err != nil {
		return fmt.Errorf("loading %s: %v (the hot-function lists must exist; only recorded escapes are regenerated)", path, err)
	}
	escapes := make(map[string][]lint.Escape)
	for _, unit := range budgeted {
		if escapes[unit.Path], err = lint.CollectEscapes(unit.Dir, fset, unit.Files); err != nil {
			return err
		}
	}
	return lint.UpdateBudget(path, budget, escapes)
}

// deterministicFiles returns the subset of pkg's files the determinism
// analyzer applies to, per lint.DeterministicScope, and whether the package
// is in scope at all. A nil file list in the scope means the whole package.
func deterministicFiles(fset *token.FileSet, pkg *load.Package) ([]*ast.File, bool) {
	names, ok := lint.DeterministicScope[pkg.Path]
	if !ok {
		return nil, false
	}
	if names == nil {
		return pkg.Files, true
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []*ast.File
	for _, f := range pkg.Files {
		if want[filepath.Base(fset.Position(f.Pos()).Filename)] {
			out = append(out, f)
		}
	}
	return out, len(out) > 0
}
