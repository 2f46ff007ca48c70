package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"preexec/internal/lint"
	"preexec/internal/lint/load"
)

// budgetFixture is a small synthetic budget for the pure CheckBudget tests.
func budgetFixture() *lint.Budget {
	return &lint.Budget{
		Package: "example",
		Hot:     []string{"(*replaySim).fetch", "busWait"},
		Allowed: map[string][]string{
			"(*replaySim).fetch": {"make([]int, n) escapes to heap"},
		},
	}
}

func TestCheckBudgetInBudget(t *testing.T) {
	escapes := []lint.Escape{
		{File: "replay.go", Line: 10, Message: "make([]int, n) escapes to heap", Func: "(*replaySim).fetch"},
	}
	if diags := lint.CheckBudget(budgetFixture(), escapes, nil); len(diags) != 0 {
		t.Fatalf("budgeted escape reported: %v", diags)
	}
}

func TestCheckBudgetNewEscape(t *testing.T) {
	escapes := []lint.Escape{
		{File: "replay.go", Line: 10, Message: "make([]int, n) escapes to heap", Func: "(*replaySim).fetch"},
		{File: "replay.go", Line: 20, Message: "&x escapes to heap", Func: "(*replaySim).fetch"},
	}
	diags := lint.CheckBudget(budgetFixture(), escapes, nil)
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "heap escape in hot function (*replaySim).fetch: &x escapes to heap") {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

// TestCheckBudgetMultiset: a message budgeted once but occurring twice is
// over budget on the second occurrence.
func TestCheckBudgetMultiset(t *testing.T) {
	escapes := []lint.Escape{
		{File: "replay.go", Line: 10, Message: "make([]int, n) escapes to heap", Func: "(*replaySim).fetch"},
		{File: "replay.go", Line: 30, Message: "make([]int, n) escapes to heap", Func: "(*replaySim).fetch"},
	}
	diags := lint.CheckBudget(budgetFixture(), escapes, nil)
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1 (second occurrence over budget): %v", len(diags), diags)
	}
}

func TestCheckBudgetColdFunctionIgnored(t *testing.T) {
	b := budgetFixture()
	escapes := []lint.Escape{
		{File: "replay.go", Line: 10, Message: "make([]int, n) escapes to heap", Func: "(*replaySim).fetch"},
		{File: "cold.go", Line: 5, Message: "new(big) escapes to heap", Func: "setup"},
		{File: "cold.go", Line: 9, Message: "x escapes to heap", Func: ""},
	}
	if diags := lint.CheckBudget(b, escapes, nil); len(diags) != 0 {
		t.Fatalf("cold-function escapes reported: %v", diags)
	}
}

// TestCheckBudgetStale: a budgeted escape that no longer occurs is reported,
// so the budget cannot silently overshoot what the code does.
func TestCheckBudgetStale(t *testing.T) {
	diags := lint.CheckBudget(budgetFixture(), nil, nil)
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1 stale entry: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "stale allocation budget") ||
		!strings.Contains(diags[0].Message, "(*replaySim).fetch") {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

// TestAllocBudgetTimingPackage is the integration half: it runs the real
// escape-analysis collection over internal/timing and internal/frontend and
// checks both that the known amortized allocations are attributed to the
// right hot functions and that the checked-in budget is exactly in sync
// with the code — the same check CI's allocbudget analyzer performs.
func TestAllocBudgetTimingPackage(t *testing.T) {
	root, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, fset, err := load.Module(root, "./internal/timing", "./internal/frontend")
	if err != nil {
		t.Fatal(err)
	}
	budgets, err := lint.LoadBudget(filepath.Join(root, lint.AllocBudgetPath))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range lint.BudgetedPackages {
		var pkg *load.Package
		for _, p := range pkgs {
			if p.Path == path {
				pkg = p
			}
		}
		if pkg == nil {
			t.Fatalf("%s not loaded", path)
		}
		escapes, err := lint.CollectEscapes(pkg.Dir, fset, pkg.Files)
		if err != nil {
			t.Fatal(err)
		}
		if path == "preexec/internal/timing" {
			// The slot-id ring's doubling is the canonical amortized
			// allocation: it must be present and attributed to
			// (*i32ring).push.
			found := false
			for _, e := range escapes {
				if e.Func == "(*i32ring).push" && e.Message == "make([]int32, len(r.buf) * 2) escapes to heap" {
					found = true
				}
			}
			if !found {
				t.Fatalf("ring growth allocation not attributed to (*i32ring).push; escapes: %+v", escapes)
			}
		}
		budget := budgets.For(path)
		if budget == nil {
			t.Fatalf("no budget for %s", path)
		}
		if diags := lint.CheckBudget(budget, escapes, nil); len(diags) != 0 {
			msgs := make([]string, len(diags))
			for i, d := range diags {
				msgs[i] = d.Message
			}
			t.Fatalf("checked-in budget out of sync with %s:\n%s\n(run `preexeclint -update-allocbudget` after an intentional change)",
				path, strings.Join(msgs, "\n"))
		}
	}
}
