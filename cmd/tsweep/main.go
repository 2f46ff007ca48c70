// Command tsweep evaluates a (benchmark x configuration) grid through the
// memoized sweep subsystem: cells that differ only in selection or ablation
// knobs share one base timing run and one functional profile per benchmark,
// making Figure 4/5-style selection sweeps ~|grid| times cheaper than
// independent evaluations.
//
// Usage:
//
//	tsweep [-bench name,name,...] [-scale N] [-warm N] [-measure N]
//	       [-scope list] [-maxlen list] [-opt list] [-merge list]
//	       [-region list] [-memlat list] [-selmemlat list]
//	       [-width list] [-selwidth list]
//	       [-workers N] [-json|-csv] [-cache on|off]
//	       [-progress] [-trace file.ndjson]
//
// Each grid flag takes a comma-separated value list; the grid is the cross
// product of every flag given (an empty grid evaluates the single "base"
// point). Examples:
//
//	tsweep -bench vpr.p -opt true,false -merge true,false   # Figure 5
//	tsweep -scope 256,512,1024,2048 -maxlen 8,16,32,64      # Figure 4 axes
//	tsweep -memlat 70,140 -selmemlat 70,140                 # Figure 8
//
// Every cell's timing runs replay one recorded trace per benchmark and run
// length: memory latencies and widths up to 16 share it. Cells whose
// selections yield the same p-threads share one replay, and a cell that
// selects nothing reuses its base run. -cache=off
// disables stage memoization across cells (every cell records, profiles
// and replays for itself); results are bit-for-bit identical either way.
// The cache's run/hit counters are reported on stderr.
//
// -trace records the sweep's stage executions as spans — one "sweep" root
// plus one "stage:<name>" span per trace recording, base run, profile,
// selection, and replay actually executed (memo hits record nothing) —
// and writes them NDJSON to the given file. Tracing never
// touches stdout: the sweep output is byte-identical with and without it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"preexec"
	"preexec/internal/obs"
	"preexec/internal/sweepio"
)

// axis is one grid dimension: a flag's raw comma-separated values and the
// configuration field they set.
type axis struct {
	name  string
	vals  []string
	apply func(cfg *preexec.Config, raw string) error
}

func intField(dst func(cfg *preexec.Config) *int) func(*preexec.Config, string) error {
	return func(cfg *preexec.Config, raw string) error {
		v, err := strconv.Atoi(raw)
		if err != nil {
			return err
		}
		*dst(cfg) = v
		return nil
	}
}

func int64Field(dst func(cfg *preexec.Config) *int64) func(*preexec.Config, string) error {
	return func(cfg *preexec.Config, raw string) error {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return err
		}
		*dst(cfg) = v
		return nil
	}
}

func boolField(dst func(cfg *preexec.Config) *bool) func(*preexec.Config, string) error {
	return func(cfg *preexec.Config, raw string) error {
		v, err := strconv.ParseBool(raw)
		if err != nil {
			return err
		}
		*dst(cfg) = v
		return nil
	}
}

func main() {
	var (
		bench    = flag.String("bench", "", "comma-separated benchmark subset (default: all ten)")
		scale    = flag.Int("scale", 1, "workload scale multiplier")
		warm     = flag.Int64("warm", 30_000, "warm-up instructions")
		measure  = flag.Int64("measure", 120_000, "measured instructions")
		workers  = flag.Int("workers", 0, "concurrent cell evaluations (0 = all cores)")
		jsonOut  = flag.Bool("json", false, "emit the full sweep result as JSON")
		csvOut   = flag.Bool("csv", false, "emit per-cell rows as CSV")
		cacheArg = flag.String("cache", "on", "stage memoization: on or off")
		progress = flag.Bool("progress", false, "stream per-cell completion to stderr")
		traceOut = flag.String("trace", "", "write stage spans as NDJSON to this file")

		scopes     = flag.String("scope", "", "slicing scopes (comma-separated)")
		maxlens    = flag.String("maxlen", "", "maximum p-thread lengths")
		opts       = flag.String("opt", "", "optimization on/off values (true,false)")
		merges     = flag.String("merge", "", "merging on/off values (true,false)")
		regions    = flag.String("region", "", "per-region selection granularities (instructions; 0 = whole sample)")
		memlats    = flag.String("memlat", "", "simulated memory latencies (cycles)")
		selmemlats = flag.String("selmemlat", "", "selector-assumed memory latencies (cycles)")
		widths     = flag.String("width", "", "simulated machine widths")
		selwidths  = flag.String("selwidth", "", "selector-assumed machine widths")
	)
	flag.Parse()
	if *jsonOut && *csvOut {
		fmt.Fprintln(os.Stderr, "tsweep: -json and -csv are mutually exclusive")
		os.Exit(2)
	}
	noCache := false
	switch *cacheArg {
	case "on":
	case "off":
		noCache = true
	default:
		fmt.Fprintf(os.Stderr, "tsweep: -cache=%q, want on or off\n", *cacheArg)
		os.Exit(2)
	}

	axes := []axis{
		{"scope", splitList(*scopes), intField(func(c *preexec.Config) *int { return &c.Selection.Scope })},
		{"maxlen", splitList(*maxlens), intField(func(c *preexec.Config) *int { return &c.Selection.MaxLen })},
		{"opt", splitList(*opts), boolField(func(c *preexec.Config) *bool { return &c.Selection.Optimize })},
		{"merge", splitList(*merges), boolField(func(c *preexec.Config) *bool { return &c.Selection.Merge })},
		{"region", splitList(*regions), int64Field(func(c *preexec.Config) *int64 { return &c.Selection.RegionInsts })},
		{"memlat", splitList(*memlats), intField(func(c *preexec.Config) *int { return &c.Machine.MemLat })},
		{"selmemlat", splitList(*selmemlats), intField(func(c *preexec.Config) *int { return &c.Selection.MemLat })},
		{"width", splitList(*widths), intField(func(c *preexec.Config) *int { return &c.Machine.Width })},
		{"selwidth", splitList(*selwidths), intField(func(c *preexec.Config) *int { return &c.Selection.Width })},
	}

	// The paper's base flow sized to this run's windows. (The zero Config is
	// not that — Optimize/Merge default off — hence DefaultConfig.)
	base := preexec.DefaultConfig()
	base.Machine.WarmInsts = *warm
	base.Machine.MeasureInsts = *measure
	points, err := gridPoints(base, axes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsweep:", err)
		os.Exit(2)
	}

	var names []string
	if *bench != "" {
		names = strings.Split(*bench, ",")
	}
	benches, err := preexec.SweepBenches(names, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsweep:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sweep := &preexec.Sweep{Workers: *workers, NoCache: noCache}
	var engineOpts []preexec.Option
	var (
		tracer  *obs.Tracer
		traceID string
		rootEnd func()
	)
	if *traceOut != "" {
		// Span IDs are identity, not randomness; the fixed seed keeps two
		// runs of the same grid producing the same span graph.
		tracer = obs.NewTracer(1, nil)
		traceID = tracer.NewTraceID()
		root := tracer.StartSpan(traceID, "", "sweep")
		rootEnd = root.End
		engineOpts = append(engineOpts, preexec.WithStageObserver(
			&obs.SpanStages{Tracer: tracer, Trace: traceID, Parent: root.SpanID()},
		))
	}
	sweep.Engine = preexec.New(engineOpts...)
	if *progress {
		sweep.Progress = func(ev preexec.SuiteEvent) {
			status := "ok"
			if ev.Err != nil {
				status = ev.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "tsweep: [%d/%d] %s: %s\n", ev.Done, ev.Total, ev.Name, status)
		}
	}
	res, err := sweep.Run(ctx, benches, points)
	if tracer != nil {
		rootEnd()
		if werr := writeTrace(*traceOut, tracer.Collect(traceID)); werr != nil {
			fmt.Fprintln(os.Stderr, "tsweep: -trace:", werr)
			if err == nil {
				err = werr
			}
		}
	}
	if res != nil {
		if emitErr := emit(res, *jsonOut, *csvOut); emitErr != nil && err == nil {
			err = emitErr
		}
		if !noCache {
			fmt.Fprintf(os.Stderr, "tsweep: cache: %d base runs (+%d shared), %d profiles (+%d shared), %d traces (+%d shared), %d replays (+%d shared) for %d cells\n",
				res.Cache.BaseRuns, res.Cache.BaseHits, res.Cache.ProfileRuns, res.Cache.ProfileHits,
				res.Cache.TraceRuns, res.Cache.TraceHits, res.Cache.ReplayRuns, res.Cache.ReplayHits, len(res.Cells))
		}
	}
	if err != nil {
		if res != nil {
			// Report only cells that actually failed; cells the cancelled
			// sweep never started are summarized in one line.
			notRun := 0
			for _, cell := range res.Cells {
				switch {
				case cell.Err == nil:
				case errors.Is(cell.Err, preexec.ErrJobNotRun):
					notRun++
				default:
					fmt.Fprintf(os.Stderr, "tsweep: %s/%s: %v\n", cell.Bench, cell.Point, cell.Err)
				}
			}
			if notRun > 0 {
				fmt.Fprintf(os.Stderr, "tsweep: %d cells not run (sweep stopped early)\n", notRun)
			}
		}
		fmt.Fprintln(os.Stderr, "tsweep:", err)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// gridPoints builds the cross product of every populated axis over the base
// configuration; no axes means the single "base" point.
func gridPoints(base preexec.Config, axes []axis) ([]preexec.ConfigPoint, error) {
	points := []preexec.ConfigPoint{{Name: "base", Config: base}}
	for _, ax := range axes {
		if len(ax.vals) == 0 {
			continue
		}
		next := make([]preexec.ConfigPoint, 0, len(points)*len(ax.vals))
		for _, pt := range points {
			for _, raw := range ax.vals {
				cfg := pt.Config
				if err := ax.apply(&cfg, raw); err != nil {
					return nil, fmt.Errorf("-%s %q: %w", ax.name, raw, err)
				}
				name := ax.name + "=" + raw
				if pt.Name != "base" {
					name = pt.Name + "," + name
				}
				next = append(next, preexec.ConfigPoint{Name: name, Config: cfg})
			}
		}
		points = next
	}
	return points, nil
}

func emit(res *preexec.SweepResult, jsonOut, csvOut bool) error {
	return sweepio.Emit(os.Stdout, res, sweepio.Options{JSON: jsonOut, CSV: csvOut, Point: true})
}

// writeTrace dumps the recorded spans NDJSON to path.
func writeTrace(path string, spans []obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteNDJSON(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
