package synth

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"preexec"
)

// smallEngine returns an engine with short windows so evaluations stay fast.
func smallEngine() *preexec.Engine {
	cfg := preexec.DefaultConfig()
	cfg.Machine.WarmInsts, cfg.Machine.MeasureInsts = 5_000, 15_000
	return preexec.New(preexec.WithConfig(cfg))
}

// TestEvaluateDeterministic pins the end-to-end determinism contract: the
// same Spec produces a bit-identical evaluation report.
func TestEvaluateDeterministic(t *testing.T) {
	s := Spec{Family: "graph", Seed: 11, FootprintWords: 1 << 14, Iters: 6000}
	eng := smallEngine()
	var got [2][]byte
	for i := range got {
		rep, err := eng.Evaluate(context.Background(), MustGenerate(s))
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = buf
	}
	if string(got[0]) != string(got[1]) {
		t.Errorf("two evaluations of the same spec differ:\n%s\n%s", got[0], got[1])
	}
}

// TestRegisterEndToEnd drives registered synthetic specs and a .prx
// workload through every registry consumer: WorkloadByName, EvaluateSuite,
// and Sweep.
func TestRegisterEndToEnd(t *testing.T) {
	specs := []Spec{
		{Name: "it.chase", Family: "chase", Seed: 2, FootprintWords: 1 << 13, Iters: 5000},
		{Name: "it.stride", Family: "stride", Seed: 2, FootprintWords: 1 << 13, Iters: 5000},
	}
	if err := Register(specs...); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range specs {
			preexec.UnregisterWorkload(s.Name)
		}
	})

	prxW, err := WorkloadFromPRX([]byte(
		".name it.prx\n.data 0x200\n.word 3, 4\nloop:\n\tli r1, 512\n\tld r2, 0(r1)\n\tld r3, 8(r1)\n\tadd r4, r2, r3\n\taddi r5, r5, 1\n\tslti r6, r5, 9000\n\tbne r6, r0, loop\n\thalt\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := preexec.RegisterWorkload(prxW); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { preexec.UnregisterWorkload("it.prx") })

	names := []string{"it.chase", "it.stride", "it.prx"}
	for _, name := range names {
		if _, err := preexec.WorkloadByName(name); err != nil {
			t.Fatalf("WorkloadByName(%s): %v", name, err)
		}
	}

	// EvaluateSuite over a mix of builtin and registered names.
	eng := smallEngine()
	reports, err := preexec.EvaluateSuite(context.Background(), eng,
		append([]string{"crafty"}, names...), 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("got %d reports, want 4", len(reports))
	}
	for i, rep := range reports {
		if rep.Base.Retired == 0 {
			t.Errorf("report %d (%s) is empty", i, rep.Program)
		}
	}

	// A name error must list the registered names too.
	_, err = preexec.EvaluateSuite(context.Background(), eng, []string{"nonesuch"}, 1, 1, nil)
	if err == nil || !strings.Contains(err.Error(), "it.prx") {
		t.Errorf("suite name error %v should list registered names", err)
	}

	// Sweep the registered benches across a two-point selection grid.
	benches, err := preexec.SweepBenches(names, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := eng.Config()
	cfgNoOpt := cfg
	cfgNoOpt.Selection.Optimize = false
	cfgNoOpt.Selection.Merge = false
	res, err := (&preexec.Sweep{Workers: 2}).Run(context.Background(), benches,
		[]preexec.ConfigPoint{{Name: "base", Config: cfg}, {Name: "raw", Config: cfgNoOpt}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(names)*2 {
		t.Fatalf("sweep produced %d cells, want %d", len(res.Cells), len(names)*2)
	}
	for _, cell := range res.Cells {
		if cell.Err != nil {
			t.Errorf("cell %s/%s: %v", cell.Bench, cell.Point, cell.Err)
		}
	}
	// Selection-only grid: the stage cache must have shared base runs and
	// profiles across the two points. it.chase and it.prx select nothing,
	// so their four pre-execution runs are base hits too.
	if res.Cache.BaseRuns != int64(len(names)) || res.Cache.BaseHits != int64(len(names))+4 {
		t.Errorf("cache stats %+v: want %d base runs + %d shared hits", res.Cache, len(names), len(names)+4)
	}
}

// TestRegisterRollsBack pins Register's atomicity: a bad spec in the batch
// leaves no partial registrations behind.
func TestRegisterRollsBack(t *testing.T) {
	err := Register(
		Spec{Name: "rb.ok", Family: "chase", Seed: 1, FootprintWords: 1 << 12, Iters: 100},
		Spec{Name: "rb.bad", Family: "chase", Seed: 1, FootprintWords: 100, Iters: 100},
	)
	if err == nil {
		t.Fatal("Register with an invalid spec should fail")
	}
	if _, lookupErr := preexec.WorkloadByName("rb.ok"); lookupErr == nil {
		preexec.UnregisterWorkload("rb.ok")
		t.Error("rb.ok stayed registered after a failed batch")
	}
}
