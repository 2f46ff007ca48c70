// Command texp regenerates the paper's tables and figures on the synthetic
// benchmark suite.
//
// Usage:
//
//	texp -exp table1|table2|fig4|fig5|fig6|fig7|fig8|width|ablate|suite|all \
//	     [-bench name,name,...] [-scale N] [-warm N] [-measure N] \
//	     [-workers N] [-json] [-progress]
//
// Each experiment prints the same rows/series the paper reports. The suite
// experiment emits the full public preexec.Report per benchmark. Cells are
// evaluated concurrently across -workers goroutines (default: all cores)
// with deterministic row ordering; -json switches to machine-readable
// output and Ctrl-C cancels mid-simulation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"preexec"
	"preexec/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1 table2 fig4 fig5 fig6 fig7 fig8 width ablate suite all")
		bench    = flag.String("bench", "", "comma-separated benchmark subset (default: all ten)")
		scale    = flag.Int("scale", 1, "workload scale multiplier")
		warm     = flag.Int64("warm", 30_000, "warm-up instructions")
		measure  = flag.Int64("measure", 120_000, "measured instructions")
		workers  = flag.Int("workers", 0, "concurrent evaluations (0 = all cores)")
		jsonOut  = flag.Bool("json", false, "emit machine-readable JSON instead of tables")
		progress = flag.Bool("progress", false, "stream per-cell completion to stderr")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := experiments.Options{Scale: *scale, Warm: *warm, Measure: *measure, Workers: *workers}
	if *bench != "" {
		opts.Benchmarks = strings.Split(*bench, ",")
	}
	if *progress {
		opts.Progress = func(ev preexec.SuiteEvent) {
			status := "ok"
			if ev.Err != nil {
				status = ev.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "texp: [%d/%d] %s: %s\n", ev.Done, ev.Total, ev.Name, status)
		}
	}
	if err := run(ctx, *exp, opts, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "texp:", err)
		os.Exit(1)
	}
}

// emit prints one experiment's results: an aligned table normally, a JSON
// document {"experiment": name, "rows": rows} with -json.
func emit(name string, rows any, table string, jsonOut bool) error {
	if !jsonOut {
		fmt.Println(table)
		return nil
	}
	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(struct {
		Experiment string `json:"experiment"`
		Rows       any    `json:"rows"`
	}{name, rows})
}

func run(ctx context.Context, exp string, opts experiments.Options, jsonOut bool) error {
	type figFn func(context.Context, experiments.Options) ([]experiments.FigRow, error)
	figures := []struct {
		name  string
		title string
		fn    figFn
	}{
		{"fig4", "Figure 4: combined impact of slicing scope and p-thread length", experiments.Figure4},
		{"fig5", "Figure 5: impact of p-thread optimization and merging", experiments.Figure5},
		{"fig6", "Figure 6: impact of p-thread selection granularity", experiments.Figure6},
		{"fig7", "Figure 7: impact of p-thread selection input data-set", experiments.Figure7},
		{"fig8", "Figure 8: response to variations in memory latency", experiments.Figure8},
		{"width", "Width: response to variations in processor width (§4.5)", experiments.Width},
		{"ablate", "Ablation: this reproduction's model refinements", experiments.Ablation},
	}

	ran := false
	if exp == "table1" || exp == "all" {
		ran = true
		rows, err := experiments.Table1(ctx, opts)
		if err != nil {
			return err
		}
		if !jsonOut {
			fmt.Println("Table 1: benchmark characterization")
		}
		if err := emit("table1", rows, experiments.FormatTable1(rows), jsonOut); err != nil {
			return err
		}
	}
	if exp == "table2" || exp == "all" {
		ran = true
		rows, err := experiments.Table2(ctx, opts)
		if err != nil {
			return err
		}
		if !jsonOut {
			fmt.Println("Table 2: basic results and performance model validation")
		}
		if err := emit("table2", rows, experiments.FormatTable2(rows), jsonOut); err != nil {
			return err
		}
	}
	for _, f := range figures {
		if exp != f.name && exp != "all" {
			continue
		}
		ran = true
		rows, err := f.fn(ctx, opts)
		if err != nil {
			return err
		}
		if !jsonOut {
			fmt.Println(f.title)
		}
		if err := emit(f.name, rows, experiments.FormatFigRows(rows), jsonOut); err != nil {
			return err
		}
	}
	if exp == "suite" {
		ran = true
		reps, err := experiments.SuiteReports(ctx, opts)
		if err != nil {
			return err
		}
		if jsonOut {
			return json.NewEncoder(os.Stdout).Encode(reps)
		}
		for _, rep := range reps {
			fmt.Printf("%-8s base IPC %.3f  pre IPC %.3f  speedup %+6.1f%%  cover %5.1f%% (full %5.1f%%)  pthreads %d\n",
				rep.Program, rep.Base.IPC, rep.Pre.IPC, rep.SpeedupPct(),
				rep.CoveragePct(), rep.FullCoveragePct(), len(rep.PThreads))
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
