package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric declares one reported number. The two tables below are the single
// source of the names BENCHMARK.json declares; TestTablesMatchBenchmarkJSON
// pins the file to them.
type metric struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// moves names, for a per-layer metric, the end-to-end metrics and the
	// workloads where a change to the layer should show, as
	// "metric@workload" pairs.
	moves []string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them, and none is ever
// zero.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cells_per_s", unit: "1/s", better: "higher", bound: 0.20},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.20},
	{name: "latency_p90_ms", unit: "ms", better: "lower", bound: 0.24},
	{name: "retained_heap_mb", unit: "MB", better: "lower", bound: 0.10},
}

// perLayer are the metrics of single layers, measured in a separate traced
// run (--trace 1). Layers are named after the repo's modules.
var perLayer = []metric{
	{name: "workload.build_calls", unit: "count", better: "lower", moves: []string{"setup_s@sweep_machine", "setup_s@fleet_sweep"}},
	{name: "workload.build_ms", unit: "ms", better: "lower", moves: []string{"setup_s@sweep_machine", "setup_s@fleet_sweep"}},

	{name: "slice.profile_calls", unit: "count", better: "lower", moves: []string{"cells_per_s@sweep_slice", "latency_p90_ms@serve_evaluate"}},
	{name: "slice.profile_busy_ms", unit: "ms", better: "lower", moves: []string{"cells_per_s@sweep_slice", "latency_p90_ms@serve_evaluate"}},
	{name: "slice.profile_ms_per_call", unit: "ms", better: "lower", moves: []string{"cells_per_s@sweep_slice", "latency_p90_ms@serve_evaluate"}},
	{name: "slice.profile_allocs_per_call", unit: "count", better: "lower", moves: []string{"cells_per_s@sweep_slice"}},
	{name: "slice.profile_mb_per_call", unit: "MB", better: "lower", moves: []string{"cells_per_s@sweep_slice"}},

	{name: "timing.replay_calls", unit: "count", better: "lower", moves: []string{"cells_per_s@sweep_select", "latency_p50_ms@serve_evaluate"}},
	{name: "timing.replay_busy_ms", unit: "ms", better: "lower", moves: []string{"cells_per_s@sweep_select", "latency_p50_ms@serve_evaluate"}},
	{name: "timing.replay_ms_per_call", unit: "ms", better: "lower", moves: []string{"cells_per_s@sweep_select", "latency_p50_ms@serve_evaluate"}},
	{name: "timing.replay_minst_per_s", unit: "Minst/s", better: "higher", moves: []string{"cells_per_s@sweep_select", "cells_per_s@serve_evaluate"}},
	{name: "timing.replay_allocs_per_call", unit: "count", better: "lower", moves: []string{"cells_per_s@sweep_select"}},
	{name: "timing.replay_mb_per_call", unit: "MB", better: "lower", moves: []string{"cells_per_s@sweep_select"}},
	{name: "timing.base_calls", unit: "count", better: "lower", moves: []string{"cells_per_s@sweep_machine"}},
	{name: "timing.base_busy_ms", unit: "ms", better: "lower", moves: []string{"cells_per_s@sweep_machine"}},
	{name: "timing.base_minst_per_s", unit: "Minst/s", better: "higher", moves: []string{"cells_per_s@sweep_machine"}},
	{name: "timing.base_allocs_per_call", unit: "count", better: "lower", moves: []string{"cells_per_s@sweep_machine"}},
	{name: "timing.base_mb_per_call", unit: "MB", better: "lower", moves: []string{"cells_per_s@sweep_machine"}},
	{name: "timing.trace_calls", unit: "count", better: "lower", moves: []string{"cells_per_s@sweep_machine", "retained_heap_mb@sweep_machine"}},
	{name: "timing.trace_busy_ms", unit: "ms", better: "lower", moves: []string{"cells_per_s@sweep_machine"}},
	{name: "timing.trace_allocs_per_call", unit: "count", better: "lower", moves: []string{"cells_per_s@sweep_machine"}},
	{name: "timing.trace_mb_per_call", unit: "MB", better: "lower", moves: []string{"retained_heap_mb@sweep_machine"}},
	{name: "timing.sim_calls", unit: "count", better: "lower", moves: []string{"cells_per_s@sweep_select"}},

	{name: "selector.select_calls", unit: "count", better: "lower", moves: []string{"cells_per_s@sweep_select"}},
	{name: "selector.select_busy_ms", unit: "ms", better: "lower", moves: []string{"cells_per_s@sweep_select"}},
	{name: "selector.pthreads_per_call", unit: "count", better: "lower", moves: []string{"cells_per_s@sweep_select"}},
	{name: "selector.select_allocs_per_call", unit: "count", better: "lower", moves: []string{"cells_per_s@sweep_select"}},
	{name: "selector.select_mb_per_call", unit: "MB", better: "lower", moves: []string{"cells_per_s@sweep_select"}},

	{name: "cache.base_hit_ratio", unit: "fraction", better: "higher", moves: []string{"cells_per_s@sweep_select"}},
	{name: "cache.profile_hit_ratio", unit: "fraction", better: "higher", moves: []string{"cells_per_s@sweep_slice", "latency_p90_ms@serve_evaluate"}},
	{name: "cache.trace_hit_ratio", unit: "fraction", better: "higher", moves: []string{"cells_per_s@sweep_machine"}},
	{name: "cache.evictions", unit: "count", better: "lower", moves: []string{"latency_p90_ms@serve_evaluate"}},

	{name: "sweep.unattributed_frac", unit: "fraction", better: "lower", moves: []string{"cells_per_s@sweep_select"}},
	{name: "runtime.alloc_mb_per_op", unit: "MB", better: "lower", moves: []string{"cells_per_s@sweep_slice"}},
	{name: "runtime.gc_cpu_frac", unit: "fraction", better: "lower", moves: []string{"cells_per_s@sweep_slice"}},

	{name: "serve.transport_frac", unit: "fraction", better: "lower", moves: []string{"latency_p50_ms@serve_evaluate"}},
	{name: "serve.stage_frac", unit: "fraction", better: "higher", moves: []string{"latency_p50_ms@serve_evaluate"}},
	{name: "serve.coalesced_ratio", unit: "fraction", better: "higher", moves: []string{"latency_p50_ms@serve_evaluate"}},
	{name: "serve.gate_queued_mean", unit: "count", better: "lower", moves: []string{"latency_p90_ms@serve_evaluate"}},
	{name: "serve.response_kb", unit: "KB", better: "lower", moves: []string{"latency_p50_ms@serve_evaluate"}},

	{name: "fleet.forward_calls", unit: "count", better: "lower", moves: []string{"cells_per_s@fleet_sweep"}},
	{name: "fleet.retries", unit: "count", better: "lower", moves: []string{"cells_per_s@fleet_sweep"}},
	{name: "fleet.failovers", unit: "count", better: "lower", moves: []string{"cells_per_s@fleet_sweep"}},
	{name: "fleet.local_fallbacks", unit: "count", better: "lower", moves: []string{"cells_per_s@fleet_sweep"}},
	{name: "fleet.max_backend_share", unit: "fraction", better: "lower", moves: []string{"cells_per_s@fleet_sweep"}},
	{name: "fleet.unattributed_frac", unit: "fraction", better: "lower", moves: []string{"cells_per_s@fleet_sweep"}},

	{name: "model.sim_speedup_pct", unit: "%", better: "higher", moves: []string{"cells_per_s@sweep_select"}},
	{name: "model.sim_coverage_pct", unit: "%", better: "higher", moves: []string{"cells_per_s@sweep_select"}},
	{name: "model.ipc_err_pct", unit: "%", better: "lower", moves: []string{"cells_per_s@sweep_select"}},

	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", moves: []string{"cells_per_s@sweep_select"}},
}

// value is one metric as the result line reports it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// collect checks that vals holds exactly the table's metrics and attaches
// their units.
func collect(table []metric, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(table))
	for _, m := range table {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		out[m.name] = value{Value: v, Unit: m.unit}
	}
	if len(vals) != len(table) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
