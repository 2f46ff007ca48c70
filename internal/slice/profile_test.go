package slice

import (
	"testing"

	"preexec/internal/workload"
)

func TestProfileWholeBasics(t *testing.T) {
	w, err := workload.ByName("vpr.r")
	if err != nil {
		t.Fatal(err)
	}
	f, err := ProfileWhole(w.Build(1), ProfileOptions{MaxInsts: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if f.Insts != 50_000 {
		t.Errorf("Insts = %d, want 50000", f.Insts)
	}
	if f.Loads == 0 || f.L2Misses == 0 || len(f.Trees) == 0 {
		t.Errorf("empty profile: %+v", f)
	}
	for pc, tree := range f.Trees {
		if err := tree.CheckInvariant(); err != nil {
			t.Errorf("tree %d: %v", pc, err)
		}
		if f.DCtrig[pc] == 0 {
			t.Errorf("root %d has no trigger count", pc)
		}
	}
}

func TestProfileWarmupSuppressesColdMisses(t *testing.T) {
	w, err := workload.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := ProfileWhole(w.Build(1), ProfileOptions{MaxInsts: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := ProfileWhole(w.Build(1), ProfileOptions{WarmInsts: 60_000, MaxInsts: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if warm.L2Misses >= cold.L2Misses && cold.L2Misses > 0 {
		t.Errorf("warm-up should suppress cold misses: cold %d, warm %d", cold.L2Misses, warm.L2Misses)
	}
}

func TestProfileRegions(t *testing.T) {
	w, err := workload.ByName("vpr.p")
	if err != nil {
		t.Fatal(err)
	}
	regions, err := Profile(w.Build(1), ProfileOptions{MaxInsts: 60_000, RegionInsts: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 3 {
		t.Fatalf("regions = %d, want 3", len(regions))
	}
	for i, r := range regions {
		if r.End <= r.Start {
			t.Errorf("region %d: bad bounds [%d,%d)", i, r.Start, r.End)
		}
		if i > 0 && r.Start != regions[i-1].End {
			t.Errorf("region %d not contiguous with previous", i)
		}
		if r.Forest.Insts == 0 {
			t.Errorf("region %d: no measured instructions", i)
		}
	}
	// Per-region trigger counts must partition the whole-run counts
	// (approximately: boundaries can split loop iterations).
	whole, err := ProfileWhole(w.Build(1), ProfileOptions{MaxInsts: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, r := range regions {
		for _, c := range r.Forest.DCtrig {
			sum += c
		}
	}
	var want int64
	for _, c := range whole.DCtrig {
		want += c
	}
	if sum != want {
		t.Errorf("regioned DCtrig sum = %d, whole = %d", sum, want)
	}
}

func TestProfileStopsAtHalt(t *testing.T) {
	w, err := workload.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	// Ask for far more instructions than the program has.
	f, err := ProfileWhole(w.BuildTest(1), ProfileOptions{MaxInsts: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if f.Insts == 0 {
		t.Error("profile recorded nothing before halt")
	}
}
