// Command tsim runs the simulators on a benchmark from the synthetic suite.
//
// Profile mode (the paper's functional cache simulator, §4.1) writes the
// slice-tree file consumed by tselect:
//
//	tsim -bench vpr.p -profile forest.json [-scope 1024] [-maxlen 32]
//
// Timing mode (the paper's detailed simulator) runs the base machine or the
// full pre-execution pipeline end to end:
//
//	tsim -bench vpr.p                 # base machine
//	tsim -bench vpr.p -preexec        # profile + select + pre-execute
//	tsim -bench vpr.p -preexec -json  # machine-readable preexec.Report
//	tsim -bench vpr.p -preexec -mode overhead-sequence
//
// Ctrl-C cancels a run mid-simulation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"preexec"
)

func main() {
	var (
		bench   = flag.String("bench", "", "benchmark name (see -list)")
		list    = flag.Bool("list", false, "list benchmarks and exit")
		test    = flag.Bool("test", false, "use the test-input variant")
		scale   = flag.Int("scale", 1, "workload scale multiplier")
		warm    = flag.Int64("warm", 30_000, "warm-up instructions")
		measure = flag.Int64("measure", 120_000, "measured instructions")

		profile = flag.String("profile", "", "write a slice-tree file and exit")
		scope   = flag.Int("scope", 1024, "slicing scope (profile mode)")
		maxlen  = flag.Int("maxlen", 32, "max p-thread length")

		preexecF = flag.Bool("preexec", false, "run the full pre-execution pipeline")
		ptsPath  = flag.String("pthreads", "", "simulate a p-thread file written by tselect -o")
		mode     = flag.String("mode", "pre-exec", "p-thread mode: pre-exec overhead-execute overhead-sequence latency-only")
		width    = flag.Int("width", 8, "processor width")
		memlat   = flag.Int("memlat", 70, "memory latency (cycles)")
		jsonOut  = flag.Bool("json", false, "emit a machine-readable preexec.Report")
	)
	flag.Parse()
	if *list {
		for _, w := range preexec.Workloads() {
			fmt.Printf("%-8s %s\n", w.Name, w.Description)
		}
		return
	}
	w, err := preexec.WorkloadByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsim:", err)
		os.Exit(2)
	}
	prog := w.Build(*scale)
	if *test {
		prog = w.BuildTest(*scale)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	eng := newEngine(preexec.MachineConfig{
		Width: *width, MemLat: *memlat, WarmInsts: *warm, MeasureInsts: *measure,
	}, *scope, *maxlen)

	if *profile != "" {
		regions, err := eng.Profile(ctx, prog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tsim:", err)
			os.Exit(1)
		}
		forest := regions[0].Forest
		if err := forest.Save(*profile); err != nil {
			fmt.Fprintln(os.Stderr, "tsim:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d insts, %d loads, %d L2 misses, %d slice trees -> %s\n",
			prog.Name, forest.Insts, forest.Loads, forest.L2Misses, len(forest.Trees), *profile)
		return
	}

	if *ptsPath != "" {
		pts, err := preexec.LoadPThreads(*ptsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tsim:", err)
			os.Exit(1)
		}
		st, err := eng.Simulate(ctx, prog, pts, parseMode(*mode))
		if err != nil {
			fmt.Fprintln(os.Stderr, "tsim:", err)
			os.Exit(1)
		}
		if *jsonOut {
			// The assisted run belongs in Pre; there is no base run in this
			// mode, so Base and the derived percentages stay zero.
			emitJSON(runReport(eng, prog.Name, preexec.Report{Pre: st, PThreads: pts}))
			return
		}
		printStats(fmt.Sprintf("%s (%d p-threads from %s)", prog.Name, len(pts), *ptsPath), st)
		return
	}

	if !*preexecF {
		st, err := eng.Simulate(ctx, prog, nil, preexec.ModeBase)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tsim:", err)
			os.Exit(1)
		}
		if *jsonOut {
			emitJSON(runReport(eng, prog.Name, preexec.Report{Base: st, BaseMisses: st.L2Misses}))
			return
		}
		printStats(prog.Name+" (base)", st)
		return
	}

	rep, err := eng.Evaluate(ctx, prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsim:", err)
		os.Exit(1)
	}
	if m := parseMode(*mode); m != preexec.ModeNormal {
		st, err := eng.Simulate(ctx, prog, rep.PThreads, m)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tsim:", err)
			os.Exit(1)
		}
		if *jsonOut {
			rep.Pre = st
			emitJSON(rep)
			return
		}
		printStats(prog.Name+" (base)", rep.Base)
		printStats(fmt.Sprintf("%s (%s)", prog.Name, m), st)
		return
	}
	if *jsonOut {
		emitJSON(rep)
		return
	}
	printStats(prog.Name+" (base)", rep.Base)
	printStats(prog.Name+" (pre-exec)", rep.Pre)
	fmt.Printf("p-threads: %d selected, coverage %.1f%% (full %.1f%%), speedup %+.1f%%, predicted IPC %.3f\n",
		len(rep.PThreads), rep.CoveragePct(), rep.FullCoveragePct(), rep.SpeedupPct(), rep.PredIPC)
}

// newEngine builds tsim's engine: the given machine, the default selection
// with the slicing scope and p-thread length set, and a stage cache, so a
// -mode diagnostic run after the evaluation replays the evaluation's
// recorded trace instead of recording its own.
func newEngine(m preexec.MachineConfig, scope, maxlen int) *preexec.Engine {
	sel := preexec.DefaultSelection()
	sel.Scope, sel.MaxLen = scope, maxlen
	return preexec.New(
		preexec.WithMachine(m),
		preexec.WithSelection(sel),
		preexec.WithStageCache(preexec.NewStageCache()),
	)
}

// runReport completes a report of single timing runs with the program name
// and the engine's normalized configuration, the one Evaluate reports carry.
func runReport(eng *preexec.Engine, prog string, rep preexec.Report) preexec.Report {
	rep.Program, rep.Config = prog, eng.Config().Normalized()
	return rep
}

func emitJSON(rep preexec.Report) {
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "tsim:", err)
		os.Exit(1)
	}
}

func parseMode(s string) preexec.Mode {
	switch s {
	case "overhead-execute":
		return preexec.ModeOverheadExecute
	case "overhead-sequence":
		return preexec.ModeOverheadSequence
	case "latency-only":
		return preexec.ModeLatencyOnly
	default:
		return preexec.ModeNormal
	}
}

func printStats(title string, st preexec.Stats) {
	fmt.Printf("%s: IPC %.3f (%d insts, %d cycles), loads %d, L2 misses %d, covered %d (full %d), launches %d (dropped %d), p-thread insts %d, mispredicts %d\n",
		title, st.IPC, st.Retired, st.Cycles, st.Loads, st.L2Misses,
		st.MissesCovered, st.MissesFullCovered, st.Launches, st.Drops, st.PtInsts, st.BrMispred)
}
