package preexec_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"testing"

	"preexec"
)

// goldenPath pins the pipeline's output bytes: Report JSON from
// Engine.Evaluate for every goldenCases entry, and Stats JSON from
// Engine.Simulate of vpr.p's default selection under the three diagnostic
// modes, one entry per line so a diff names the case that changed.
// Regenerate it (only for an intended result change) with
//
//	go test -run TestEngineMatchesCoreGolden -update .
const goldenPath = "testdata/report_golden.json"

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from the current engine")

type goldenFile struct {
	Reports map[string]json.RawMessage `json:"reports"`
	Modes   map[string]json.RawMessage `json:"modes"`
}

// goldenCase is one pinned evaluation: a benchmark and the configuration it
// runs under (a function of the benchmark, so a case can profile on the
// benchmark's test input).
type goldenCase struct {
	name, bench string
	cfg         func(preexec.SweepBench) preexec.Config
}

// goldenCases covers every workload at the test windows plus variants that
// push each configuration field through the pipeline: region granularity,
// profiling on another input, a selector lied to about the machine with the
// ablation switches set, optimization and merging off, and a configuration
// whose zero fields all take their defaults.
func goldenCases() []goldenCase {
	with := func(edit func(*preexec.Config, preexec.SweepBench)) func(preexec.SweepBench) preexec.Config {
		return func(b preexec.SweepBench) preexec.Config {
			cfg := preexec.DefaultConfig()
			cfg.Machine = testMachine()
			if edit != nil {
				edit(&cfg, b)
			}
			return cfg
		}
	}
	var cases []goldenCase
	for _, name := range preexec.WorkloadNames() {
		cases = append(cases, goldenCase{name, name, with(nil)})
	}
	return append(cases,
		goldenCase{"vpr.p-region", "vpr.p", with(func(c *preexec.Config, _ preexec.SweepBench) {
			c.Selection.RegionInsts = 20_000
		})},
		goldenCase{"vpr.p-profile-test", "vpr.p", with(func(c *preexec.Config, b preexec.SweepBench) {
			c.Selection.ProfileOn = b.Test
			c.Selection.ProfileInsts = 40_000
		})},
		goldenCase{"vpr.r-selector-ablation", "vpr.r", with(func(c *preexec.Config, _ preexec.SweepBench) {
			c.Selection.MemLat, c.Selection.Width = 140, 4
			c.Ablation = preexec.AblationConfig{ModelLoadLat: 1, NoRSThrottle: true}
		})},
		goldenCase{"vpr.p-no-opt-merge", "vpr.p", with(func(c *preexec.Config, _ preexec.SweepBench) {
			c.Selection.Optimize, c.Selection.Merge = false, false
		})},
		goldenCase{"vpr.p-windows-only", "vpr.p", func(preexec.SweepBench) preexec.Config {
			var cfg preexec.Config
			cfg.Machine.WarmInsts, cfg.Machine.MeasureInsts = 20_000, 60_000
			return cfg
		}},
	)
}

var diagnosticModes = []preexec.Mode{
	preexec.ModeOverheadExecute,
	preexec.ModeOverheadSequence,
	preexec.ModeLatencyOnly,
}

// TestEngineMatchesCoreGolden pins Engine.Evaluate and Engine.Simulate
// bit-for-bit to the recorded golden: every statistic, every selected
// p-thread, every prediction and the normalized configuration. The "sweep"
// subtest runs the same cells through a Sweep sharing one StageCache, so
// the cached base runs, profiles and trace replays must yield the same
// bytes as uncached evaluation.
func TestEngineMatchesCoreGolden(t *testing.T) {
	golden := goldenFile{Reports: map[string]json.RawMessage{}, Modes: map[string]json.RawMessage{}}
	if !*update {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, entries map[string]json.RawMessage, name string, got any) {
		t.Helper()
		data, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			entries[name] = data
			return
		}
		want, ok := entries[name]
		if !ok {
			t.Fatalf("%s has no entry %q", goldenPath, name)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, compact.Bytes()) {
			t.Errorf("%s diverges from %s:\n got %s\nwant %s", name, goldenPath, data, compact.Bytes())
		}
	}

	benches, err := preexec.SweepBenches(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]preexec.SweepBench{}
	for _, b := range benches {
		byName[b.Name] = b
	}
	cases := goldenCases()

	var selected []*preexec.PThread // vpr.p's default selection
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := byName[c.bench]
			rep, err := preexec.New(preexec.WithConfig(c.cfg(b))).Evaluate(t.Context(), b.Program)
			if err != nil {
				t.Fatal(err)
			}
			if c.name == "vpr.p" {
				selected = rep.PThreads
			}
			check(t, golden.Reports, c.name, rep)
		})
	}
	eng := preexec.New(preexec.WithMachine(testMachine()))
	for _, mode := range diagnosticModes {
		t.Run("vpr.p-"+mode.String(), func(t *testing.T) {
			st, err := eng.Simulate(t.Context(), byName["vpr.p"].Program, selected, mode)
			if err != nil {
				t.Fatal(err)
			}
			check(t, golden.Modes, mode.String(), st)
		})
	}

	if *update {
		var buf bytes.Buffer
		buf.WriteString("{\n")
		writeGoldenSection(&buf, "reports", golden.Reports, ",")
		writeGoldenSection(&buf, "modes", golden.Modes, "")
		buf.WriteString("}\n")
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	t.Run("sweep", func(t *testing.T) {
		cache := preexec.NewStageCache()
		for _, c := range cases {
			s := &preexec.Sweep{Workers: 2, Cache: cache}
			res, err := s.Run(t.Context(), []preexec.SweepBench{byName[c.bench]},
				[]preexec.ConfigPoint{{Name: c.name, Derive: c.cfg}})
			if err != nil {
				t.Fatal(err)
			}
			check(t, golden.Reports, c.name, res.Cells[0].Report)
		}
		eng := preexec.New(preexec.WithMachine(testMachine()), preexec.WithStageCache(cache))
		for _, mode := range diagnosticModes {
			st, err := eng.Simulate(t.Context(), byName["vpr.p"].Program, selected, mode)
			if err != nil {
				t.Fatal(err)
			}
			check(t, golden.Modes, mode.String(), st)
		}
		if cs := cache.Stats(); cs.BaseHits == 0 || cs.ProfileHits == 0 || cs.TraceHits == 0 {
			t.Errorf("sweep missed the cached paths: %+v", cs)
		}
	})
}

// writeGoldenSection renders one object of the golden file, its entries
// compact and sorted by name, one per line.
func writeGoldenSection(buf *bytes.Buffer, name string, entries map[string]json.RawMessage, trailer string) {
	fmt.Fprintf(buf, "  %q: {\n", name)
	keys := slices.Sorted(maps.Keys(entries))
	for i, k := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(buf, "    %q: %s%s\n", k, entries[k], sep)
	}
	fmt.Fprintf(buf, "  }%s\n", trailer)
}
