package main

import (
	"reflect"
	"testing"

	"preexec"
)

// TestRunReportConfigNormalized pins the -json config of the base and
// -pthreads modes to the one a -preexec -json report carries: the engine's
// normalized configuration, with profile_insts, sel_mem_lat and sel_width
// filled in.
func TestRunReportConfigNormalized(t *testing.T) {
	eng := newEngine(preexec.MachineConfig{Width: 8, MemLat: 70, WarmInsts: 2_000, MeasureInsts: 6_000}, 1024, 32)
	w, err := preexec.WorkloadByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(1)
	want, err := eng.Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	got := runReport(eng, prog.Name, preexec.Report{})
	if !reflect.DeepEqual(got.Config, want.Config) {
		t.Errorf("run report config = %+v, want the evaluation's %+v", got.Config, want.Config)
	}
	if s := got.Config.Selection; s.ProfileInsts != 6_000 || s.MemLat != 70 || s.Width != 8 {
		t.Errorf("selection = %+v, want profile_insts 6000, sel_mem_lat 70, sel_width 8", s)
	}
}
