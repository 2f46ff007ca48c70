// Command tgen expands a parameterized scenario grid into synthetic
// workloads (package synth) and either emits them as a .prx corpus, pipes
// them straight into the memoized sweep engine, or lists them.
//
// Usage:
//
//	tgen [-family list] [-seed list] [-footprint list] [-iters list]
//	     [-clusters list] [-stride list] [-alias list] [-depth list]
//	     [-degree list] [-compute list] [-scatter list]
//	     [-spec grid.json] [file.prx ...]
//	     [-o dir | -sweep] [-warm N] [-measure N] [-workers N]
//	     [-json|-csv] [-cachelimit N] [-progress]
//
// The grid is the cross product of every comma-separated axis flag over
// every family; knobs irrelevant to a family are ignored, and the expansion
// is deduplicated by canonical spec name, so
//
//	tgen -family chase,stride -seed 1,2 -footprint 65536 -iters 20000 \
//	     -clusters 0,256 -alias 0,8
//
// yields chase x {seed} x {clusters} plus stride x {seed} x {alias} — not
// the meaningless full product. -spec FILE appends explicit synth.Spec
// values (a JSON array) to the grid, and positional .prx files join the
// corpus as fixed programs.
//
// With -o DIR every generated program is disassembled into DIR/<name>.prx
// (hand-editable, reloadable by tgen and the synth API). With -sweep the
// corpus is evaluated through preexec.Sweep — one base config point sized
// by -warm/-measure — and reported like tsweep (-json, -csv, or a table);
// -cachelimit bounds the stage cache for corpora too large to memoize
// whole. Without either, tgen prints the expanded corpus (one line per
// scenario: name, family, static instructions, data words).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"preexec"
	"preexec/internal/stats"
	"preexec/internal/sweepio"
	"preexec/synth"
)

func main() {
	var (
		families   = flag.String("family", "", "comma-separated pattern families (default: none; required unless -spec or .prx files are given)")
		seeds      = flag.String("seed", "1", "seeds")
		footprints = flag.String("footprint", "65536", "data footprints in 8-byte words (powers of two)")
		iters      = flag.String("iters", "20000", "main-loop iteration counts")
		clusters   = flag.String("clusters", "", "chase: cluster counts (0 = uniform)")
		strides    = flag.String("stride", "", "stride: strides in words")
		aliases    = flag.String("alias", "", "stride: same-set stream counts (0 = one stream)")
		depths     = flag.String("depth", "", "hash: probe-chain lengths; btree: walk-depth caps")
		degrees    = flag.String("degree", "", "graph: adjacency degrees")
		computes   = flag.String("compute", "", "extra ALU work per iteration (all families)")
		scatters   = flag.String("scatter", "", "gather: store back through gathered addresses (true,false)")
		specFile   = flag.String("spec", "", "JSON file holding an array of explicit specs, appended to the grid")

		outDir = flag.String("o", "", "write the corpus as <name>.prx files into this directory")
		sweep  = flag.Bool("sweep", false, "evaluate the corpus through the memoized sweep engine")

		warm       = flag.Int64("warm", 30_000, "sweep: warm-up instructions")
		measure    = flag.Int64("measure", 120_000, "sweep: measured instructions")
		workers    = flag.Int("workers", 0, "sweep: concurrent cell evaluations (0 = all cores)")
		jsonOut    = flag.Bool("json", false, "sweep: emit the full result as JSON")
		csvOut     = flag.Bool("csv", false, "sweep: emit per-cell rows as CSV")
		cacheLimit = flag.Int("cachelimit", 0, "sweep: LRU entry bound per cache stage (0 = unlimited)")
		progress   = flag.Bool("progress", false, "sweep: stream per-cell completion to stderr")
	)
	flag.Parse()
	if *jsonOut && *csvOut {
		fatal(errors.New("-json and -csv are mutually exclusive"))
	}
	if *outDir != "" && *sweep {
		fatal(errors.New("-o and -sweep are mutually exclusive (emit the corpus, then sweep it in a second run)"))
	}

	specs, err := expandGrid(axisValues{
		families:   splitList(*families),
		seeds:      splitList(*seeds),
		footprints: splitList(*footprints),
		iters:      splitList(*iters),
		clusters:   splitList(*clusters),
		strides:    splitList(*strides),
		aliases:    splitList(*aliases),
		depths:     splitList(*depths),
		degrees:    splitList(*degrees),
		computes:   splitList(*computes),
		scatters:   splitList(*scatters),
	})
	if err != nil {
		fatal(err)
	}
	if *specFile != "" {
		extra, err := loadSpecs(*specFile)
		if err != nil {
			fatal(err)
		}
		specs = append(specs, extra...)
	}

	// Build the corpus: every spec becomes a workload (validated up front,
	// so a bad grid fails before any generation work), every positional
	// .prx file a fixed program.
	type scenario struct {
		name  string
		bench preexec.SweepBench
	}
	var corpus []scenario
	seen := map[string]bool{}
	for _, s := range specs {
		autoNamed := s.Name == ""
		w, err := s.Workload()
		if err != nil {
			fatal(err)
		}
		if seen[w.Name] {
			if autoNamed {
				continue // grid duplicate (irrelevant-knob collapse)
			}
			fatal(fmt.Errorf("duplicate scenario name %q", w.Name))
		}
		seen[w.Name] = true
		sc := scenario{name: w.Name, bench: preexec.SweepBench{Name: w.Name, Program: w.Build(1)}}
		if *sweep {
			// The test-input build is only consumed by sweep cells; -o and
			// list mode skip the second generation.
			sc.bench.Test = w.BuildTest(1)
		}
		corpus = append(corpus, sc)
	}
	for _, path := range flag.Args() {
		p, err := synth.LoadPRX(path)
		if err != nil {
			fatal(err)
		}
		if seen[p.Name] {
			fatal(fmt.Errorf("%s: duplicate scenario name %q", path, p.Name))
		}
		seen[p.Name] = true
		corpus = append(corpus, scenario{name: p.Name, bench: preexec.SweepBench{
			Name: p.Name, Program: p, Test: p,
		}})
	}
	if len(corpus) == 0 {
		fatal(errors.New("empty corpus: give -family (with grid flags), -spec, or .prx files; see -h"))
	}

	switch {
	case *outDir != "":
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		for _, sc := range corpus {
			path := filepath.Join(*outDir, fileName(sc.name)+".prx")
			if err := os.WriteFile(path, synth.Disassemble(sc.bench.Program), 0o644); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("tgen: wrote %d scenarios to %s\n", len(corpus), *outDir)

	case *sweep:
		benches := make([]preexec.SweepBench, len(corpus))
		for i, sc := range corpus {
			benches[i] = sc.bench
		}
		cfg := preexec.DefaultConfig()
		cfg.Machine.WarmInsts, cfg.Machine.MeasureInsts = *warm, *measure
		sw := &preexec.Sweep{Workers: *workers}
		if *cacheLimit > 0 {
			sw.Cache = preexec.NewStageCache(preexec.WithStageCacheLimit(*cacheLimit))
		}
		if *progress {
			sw.Progress = func(ev preexec.SuiteEvent) {
				status := "ok"
				if ev.Err != nil {
					status = ev.Err.Error()
				}
				fmt.Fprintf(os.Stderr, "tgen: [%d/%d] %s: %s\n", ev.Done, ev.Total, ev.Name, status)
			}
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		res, err := sw.Run(ctx, benches, []preexec.ConfigPoint{{Name: "base", Config: cfg}})
		if res != nil {
			if emitErr := emit(res, *jsonOut, *csvOut); emitErr != nil && err == nil {
				err = emitErr
			}
			fmt.Fprintf(os.Stderr, "tgen: cache: %d base runs (+%d shared), %d profiles (+%d shared), %d evicted for %d cells\n",
				res.Cache.BaseRuns, res.Cache.BaseHits, res.Cache.ProfileRuns, res.Cache.ProfileHits,
				res.Cache.Evictions, len(res.Cells))
		}
		if err != nil {
			if res != nil {
				for _, cell := range res.Cells {
					if cell.Err != nil && !errors.Is(cell.Err, preexec.ErrJobNotRun) {
						fmt.Fprintf(os.Stderr, "tgen: %s/%s: %v\n", cell.Bench, cell.Point, cell.Err)
					}
				}
			}
			fatal(err)
		}

	default:
		t := stats.NewTable("scenario", "insts", "data words")
		for _, sc := range corpus {
			t.Row(sc.name, len(sc.bench.Program.Insts), dataWords(sc.bench.Program))
		}
		fmt.Print(t.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tgen:", err)
	os.Exit(1)
}

func dataWords(p *preexec.Program) int {
	n := 0
	for _, r := range p.Data.Runs() {
		n += len(r.Vals)
	}
	return n
}

// fileName makes a scenario name filesystem-safe.
func fileName(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':', ' ':
			return '_'
		}
		return r
	}, name)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

type axisValues struct {
	families, seeds, footprints, iters []string
	clusters, strides, aliases, depths []string
	degrees, computes, scatters        []string
}

// expandGrid crosses every axis over every family. Knob axes default to a
// single zero value (the family default) when unset; Spec normalization
// ignores knobs irrelevant to a family, and the caller deduplicates by
// canonical name.
func expandGrid(ax axisValues) ([]synth.Spec, error) {
	if len(ax.families) == 0 {
		return nil, nil
	}
	specs := []synth.Spec{{}}
	cross := func(name string, vals []string, apply func(s *synth.Spec, raw string) error) error {
		if len(vals) == 0 {
			return nil
		}
		next := make([]synth.Spec, 0, len(specs)*len(vals))
		for _, sp := range specs {
			for _, raw := range vals {
				s := sp
				if err := apply(&s, strings.TrimSpace(raw)); err != nil {
					return fmt.Errorf("-%s %q: %w", name, raw, err)
				}
				next = append(next, s)
			}
		}
		specs = next
		return nil
	}
	intKnob := func(dst func(s *synth.Spec) *int) func(*synth.Spec, string) error {
		return func(s *synth.Spec, raw string) error {
			v, err := strconv.Atoi(raw)
			if err != nil {
				return err
			}
			*dst(s) = v
			return nil
		}
	}
	steps := []struct {
		name  string
		vals  []string
		apply func(*synth.Spec, string) error
	}{
		{"family", ax.families, func(s *synth.Spec, raw string) error { s.Family = raw; return nil }},
		{"seed", ax.seeds, func(s *synth.Spec, raw string) error {
			v, err := strconv.ParseUint(raw, 10, 64)
			s.Seed = v
			return err
		}},
		{"footprint", ax.footprints, intKnob(func(s *synth.Spec) *int { return &s.FootprintWords })},
		{"iters", ax.iters, intKnob(func(s *synth.Spec) *int { return &s.Iters })},
		{"clusters", ax.clusters, intKnob(func(s *synth.Spec) *int { return &s.Clusters })},
		{"stride", ax.strides, intKnob(func(s *synth.Spec) *int { return &s.Stride })},
		{"alias", ax.aliases, intKnob(func(s *synth.Spec) *int { return &s.Alias })},
		{"depth", ax.depths, intKnob(func(s *synth.Spec) *int { return &s.Depth })},
		{"degree", ax.degrees, intKnob(func(s *synth.Spec) *int { return &s.Degree })},
		{"compute", ax.computes, intKnob(func(s *synth.Spec) *int { return &s.Compute })},
		{"scatter", ax.scatters, func(s *synth.Spec, raw string) error {
			v, err := strconv.ParseBool(raw)
			s.Scatter = v
			return err
		}},
	}
	for _, st := range steps {
		if err := cross(st.name, st.vals, st.apply); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// loadSpecs reads explicit specs from a JSON array file.
func loadSpecs(path string) ([]synth.Spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var specs []synth.Spec
	if err := json.Unmarshal(buf, &specs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return specs, nil
}

func emit(res *preexec.SweepResult, jsonOut, csvOut bool) error {
	return sweepio.Emit(os.Stdout, res, sweepio.Options{JSON: jsonOut, CSV: csvOut, BenchHeader: "scenario"})
}
