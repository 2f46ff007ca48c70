package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"preexec"
	"preexec/synth"
)

// inputs is everything one workload run feeds the system, drawn from the
// seed alone: the same seed gives byte-identical inputs (pinned by
// TestInputsDeterministic). The system under test receives only these
// configurations, specs and request bodies.
type inputs struct {
	// benches names the built-in workloads of the grid, in grid order.
	benches []string
	// specs are the synthetic scenarios appended to the grid's benchmarks.
	specs []synth.Spec
	// points are the configuration points of a sweep grid.
	points []preexec.ConfigPoint
	// hot and cold are the serve_evaluate request cells: the hot set warmed
	// in set-up, and the stream of cold cells, each with a scope no earlier
	// request of its workload used.
	hot, cold []evalCell
	// order is the serve_evaluate request stream: -1-k is cold cell k, any
	// other value an index into hot.
	order []int
}

// evalCell is one /v1/evaluate request: a built-in workload under a
// configuration.
type evalCell struct {
	Workload string         `json:"workload"`
	Config   preexec.Config `json:"config"`
}

// body renders the request body.
func (c evalCell) body() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return b
}

const (
	// streamLen bounds the serve_evaluate request stream, a whole number
	// of batches: at about 50 requests a second, over a minute of load.
	streamLen = 40 * serveBatch
	// serveBatch is the request count of one serve_evaluate repetition.
	serveBatch = 100
	// heapRequests is the number of requests after which an untraced
	// serve_evaluate run reads the retained heap, a whole number of
	// batches; the run sends at least that many.
	heapRequests = 10 * serveBatch
	// coldEvery makes one request in coldEvery cold.
	coldEvery = 5
)

// newRand is the input stream of one workload: seeded by the run seed and
// keyed by the workload name, so workloads draw independent inputs.
func newRand(seed uint64, workload string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// around draws a pair center-d, center+d with d from lo, lo+step, ..., hi.
// Seeded knobs come in such pairs because a cell's cost moves about
// linearly with them: the pair changes which cells a grid holds, not how
// much work the grid is, so runs on different seeds measure the same load.
func around(r *rand.Rand, center, lo, hi, step int) [2]int {
	d := lo + step*r.IntN((hi-lo)/step+1)
	return [2]int{center - d, center + d}
}

func onOff(b bool) int {
	if b {
		return 1
	}
	return 0
}

// genInputs draws a workload's inputs.
func genInputs(workload string, seed uint64) (inputs, error) {
	r := newRand(seed, workload)
	builtins := preexec.WorkloadNames()[:10]
	in := inputs{benches: builtins}
	base := preexec.DefaultConfig()
	point := func(name string, cfg preexec.Config) {
		in.points = append(in.points, preexec.ConfigPoint{Name: name, Config: cfg})
	}
	switch workload {
	case "sweep_select":
		// Selection-model knobs only: every cell of a benchmark shares one
		// base run, one profile and one trace.
		pair := around(r, 70, 8, 32, 4)
		lats := []int{pair[0], 70, pair[1]}
		widths := around(r, 8, 2, 4, 2)
		for _, opt := range []bool{false, true} {
			for _, merge := range []bool{false, true} {
				for _, lat := range lats {
					for _, w := range widths {
						cfg := base
						cfg.Selection.Optimize, cfg.Selection.Merge = opt, merge
						cfg.Selection.MemLat, cfg.Selection.Width = lat, w
						point(fmt.Sprintf("o%dm%d-sl%d-sw%d", onOff(opt), onOff(merge), lat, w), cfg)
					}
				}
			}
		}
	case "sweep_slice":
		// The paper's Figure 4 axis: every scope x length pair is a new
		// profile.
		for _, scope := range around(r, 1024, 64, 256, 16) {
			for _, ml := range around(r, 32, 2, 8, 2) {
				for _, om := range []bool{false, true} {
					cfg := base
					cfg.Selection.Scope, cfg.Selection.MaxLen = scope, ml
					cfg.Selection.Optimize, cfg.Selection.Merge = om, om
					point(fmt.Sprintf("sc%d-ml%d-om%d", scope, ml, onOff(om)), cfg)
				}
			}
		}
	case "sweep_machine":
		// Every cell is its own base run and trace; the synthetic zoo adds
		// footprints from L2-resident to twice the L2.
		for _, lat := range around(r, 70, 10, 30, 2) {
			for _, w := range []int{4, 8} {
				cfg := base
				cfg.Machine.MemLat, cfg.Machine.Width = lat, w
				point(fmt.Sprintf("l%d-w%d", lat, w), cfg)
			}
		}
		for _, s := range synth.Zoo() {
			s.Seed = 1 + r.Uint64N(1<<20)
			in.specs = append(in.specs, s)
		}
	case "serve_evaluate":
		// Two hot cells per built-in keep the workload mix the same on every
		// seed; their selection knobs are complementary pairs.
		for _, b := range builtins {
			opt, merge := r.IntN(2) == 1, r.IntN(2) == 1
			for k, lat := range around(r, 70, 4, 28, 4) {
				cfg := base
				cfg.Selection.Optimize, cfg.Selection.Merge = opt != (k == 1), merge != (k == 1)
				cfg.Selection.MemLat = lat
				in.hot = append(in.hot, evalCell{Workload: b, Config: cfg})
			}
		}
		// Cold cells cycle through the built-ins too, each with a scope near
		// the hot set's 1024, so a cold profile costs about what a hot one
		// did.
		scopes := r.Perm(512)
		for k := 0; k < streamLen; k++ {
			cell := in.hot[2*(k%len(builtins))]
			scope := 768 + scopes[k%len(scopes)] + 512*(k/len(scopes))
			if scope >= 1024 {
				scope++
			}
			cell.Config.Selection.Scope = scope
			in.cold = append(in.cold, cell)
		}
		// Every batch of serveBatch requests holds the same mix — each hot
		// cell equally often, one request in coldEvery cold — in seeded
		// order, so every repetition is the same amount of work.
		cold := 0
		for len(in.order) < streamLen {
			batch := make([]int, 0, serveBatch)
			for len(batch) < serveBatch-serveBatch/coldEvery {
				batch = append(batch, len(batch)%len(in.hot))
			}
			for len(batch) < serveBatch {
				batch = append(batch, -1-cold)
				cold++
			}
			r.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			in.order = append(in.order, batch...)
		}
	case "fleet_sweep":
		// 40 base-key groups of two cells. The memory latencies, which
		// route cells, are fixed: a seeded latency would move cells between
		// backends and with them the fleet's balance. The seed draws the
		// selection model's latency, which routes nothing.
		for _, lat := range []int{55, 65, 75, 85} {
			for _, opt := range []bool{false, true} {
				cfg := base
				cfg.Machine.MemLat = lat
				cfg.Selection.Optimize = opt
				cfg.Selection.MemLat = 40 + 4*r.IntN(16)
				point(fmt.Sprintf("l%d-o%d-sl%d", lat, onOff(opt), cfg.Selection.MemLat), cfg)
			}
		}
	default:
		return inputs{}, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}
