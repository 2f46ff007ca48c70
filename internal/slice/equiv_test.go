package slice_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"preexec/internal/cpu"
	"preexec/internal/frontend"
	"preexec/internal/isa"
	"preexec/internal/program"
	"preexec/internal/slice"
	"preexec/internal/timing"
	"preexec/internal/workload"
	"preexec/synth"
)

// TestBackwardMatchesReference pins the profiler to the frozen reference
// (refslice_test.go), which executes the program itself and rebuilds its
// dataflow in a Tracker: over every built-in workload and every synth.Zoo
// scenario, at two slicing scopes and two maximum lengths, whole-run and
// regioned profiles must produce deeply equal forests, from a standalone
// Profile, which records exactly its window, and from a trace recorded
// twice as long, profiled for one shape and for all four at once. Every
// forest must also satisfy the slice-tree invariant, and since each miss is
// inserted into exactly one tree, L2Misses must equal the trees' summed
// Misses.
func TestBackwardMatchesReference(t *testing.T) {
	measure := int64(20_000)
	if testing.Short() {
		measure = 5_000
	}
	ctx := context.Background()
	for _, pr := range equivPrograms(t) {
		t.Run(pr.name, func(t *testing.T) {
			t.Parallel()
			tr := recordFor(t, pr.p, 2*(5_000+measure))
			for _, region := range []int64{0, measure / 4} {
				var shapes []slice.ProfileOptions
				for _, scope := range []int{64, 1024} {
					for _, maxLen := range []int{4, 32} {
						shapes = append(shapes, slice.ProfileOptions{
							WarmInsts: 5_000, MaxInsts: measure,
							Scope: scope, MaxSlice: maxLen, RegionInsts: region,
						})
					}
				}
				several, err := slice.ProfileShapes(ctx, tr, shapes)
				if err != nil {
					t.Fatalf("region=%d: %v", region, err)
				}
				for i, opts := range shapes {
					cell := fmt.Sprintf("scope=%d maxlen=%d region=%d", opts.Scope, opts.MaxSlice, region)
					want, err := refProfile(ctx, pr.p, opts)
					if err != nil {
						t.Fatalf("%s (reference): %v", cell, err)
					}
					standalone, err := slice.Profile(pr.p, opts)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					one, err := slice.ProfileShapes(ctx, tr, shapes[i:i+1])
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					for name, got := range map[string][]slice.Region{"standalone": standalone, "recorded": one[0], "several shapes": several[i]} {
						if len(got) != len(want) {
							t.Fatalf("%s %s: %d regions, reference %d", cell, name, len(got), len(want))
						}
						for j := range got {
							if !reflect.DeepEqual(got[j], want[j]) {
								t.Errorf("%s %s: region %d differs from the reference profiler", cell, name, j)
							}
							checkForest(t, cell, got[j].Forest)
						}
					}
				}
			}
		})
	}
}

// recordFor records span records of p's front-end stream.
func recordFor(t *testing.T, p *program.Program, span int64) *frontend.Trace {
	t.Helper()
	tr, err := frontend.Record(context.Background(), p, span, "test")
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

type equivProgram struct {
	name string
	p    *program.Program
}

// equivPrograms builds every built-in workload and every synth.Zoo
// scenario: the program set the profiling equivalence tests cover.
func equivPrograms(t *testing.T) []equivProgram {
	t.Helper()
	var progs []equivProgram
	for _, w := range workload.All() {
		progs = append(progs, equivProgram{w.Name, w.Build(1)})
	}
	for _, z := range synth.Zoo() {
		p, err := synth.Generate(z)
		if err != nil {
			t.Fatalf("zoo %s: %v", z.Name, err)
		}
		progs = append(progs, equivProgram{z.Name, p})
	}
	return progs
}

// checkForest asserts the per-forest invariants: every tree satisfies
// CheckInvariant, and the forest's misses are exactly the inserted slices.
func checkForest(t *testing.T, cell string, f *slice.Forest) {
	t.Helper()
	var inserted int64
	for pc, tree := range f.Trees {
		if err := tree.CheckInvariant(); err != nil {
			t.Errorf("%s: tree %d: %v", cell, pc, err)
		}
		inserted += tree.Misses
	}
	if inserted != f.L2Misses {
		t.Errorf("%s: trees hold %d misses, forest counts %d L2 misses", cell, inserted, f.L2Misses)
	}
}

// fuzzOps is the opcode alphabet FuzzBackward draws from: register
// producers with zero, one and two sources, loads and stores (store-to-load
// links), and instructions that produce nothing a load consumes.
var fuzzOps = [...]isa.Op{isa.LI, isa.ADD, isa.ADDI, isa.MOV, isa.LD, isa.ST, isa.MUL, isa.LD, isa.ADD, isa.NOP, isa.BEQ, isa.JAL}

// fuzzStream decodes fuzz input into a slicing scope, a maximum slice length,
// a wider shape at least as large in both, and a cpu.Exec stream. Three
// header bytes pick the scope (1..16, so producers routinely fall out of
// it), the maximum length (1..40) and the first Seq (observation may start
// mid-run); the high parts of the first two pick how much wider the wide
// shape is (0..15 more scope, 0..48 more length). Every further three bytes
// are one instruction, at its own PC, over registers r0..r7 and four memory
// words, so repeated sources (add r3,r1,r1), shared producers and
// store-to-load links are common.
func fuzzStream(data []byte) (scope, maxLen, wideScope, wideLen int, execs []cpu.Exec) {
	if len(data) < 3 {
		return 0, 0, 0, 0, nil
	}
	scope, maxLen = 1+int(data[0]%16), 1+int(data[1]%40)
	wideScope, wideLen = scope+int(data[0]/16), maxLen+8*int(data[1]/40)
	seq := int64(data[2]) * 1000
	data = data[3:]
	for len(data) >= 3 && len(execs) < 4096 {
		b0, b1, b2 := data[0], data[1], data[2]
		data = data[3:]
		in := isa.Inst{
			Op:  fuzzOps[int(b0)%len(fuzzOps)],
			Rd:  isa.Reg(b1 & 7),
			Rs1: isa.Reg(b1 >> 3 & 7),
			Rs2: isa.Reg(b2 & 7),
		}
		e := cpu.Exec{Seq: seq, PC: len(execs), Inst: in}
		if in.IsMem() {
			e.EffAddr = int64(b2>>3&3) * 8
		}
		execs = append(execs, e)
		seq++
	}
	return scope, maxLen, wideScope, wideLen, execs
}

// FuzzBackward is the slicer differential: for random instruction streams
// linked into front-end records, Slicer.Backward over a small-scope window
// must agree on the slice of every load with the frozen reference slicer
// over a Tracker that observed the same stream. One Slicer serves the whole
// stream, so reuse of its scratch across calls is exercised too. A second
// Slicer at a wider shape slices the same records, and its slice of every
// load, cut down to the narrow shape (the multi-shape profiling pass), must
// equal the narrow slice.
func FuzzBackward(f *testing.F) {
	// Header (scope, maxlen, first seq), then (op, rd|rs1<<3, rs2|word<<3)
	// triples; op indexes fuzzOps.
	f.Add([]byte{15, 31, 0,
		0, 1, 0, // li r1
		2, 1<<3 | 2, 0, // addi r2, r1
		1, 2<<3 | 3, 2, // add r3, r2, r2
		4, 3<<3 | 4, 0, // ld r4, (r3)
	})
	f.Add([]byte{15, 31, 7,
		0, 2, 0, // li r2
		5, 1 << 3, 2 | 1<<3, // st r2 -> word 1
		4, 1<<3 | 3, 1 << 3, // ld r3 <- word 1
		1, 3<<3 | 5, 3, // add r5, r3, r3
		4, 5<<3 | 6, 2 << 3, // ld r6, (r5)
	})
	f.Add([]byte{2, 3, 1,
		0, 1, 0, // li r1 (falls out of a 3-entry window)
		9, 0, 0, 9, 0, 0, 9, 0, 0, // nops
		2, 1<<3 | 1, 0, // addi r1, r1
		2, 1<<3 | 1, 0, // addi r1, r1
		4, 1<<3 | 2, 0, // ld r2, (r1)
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		scope, maxLen, wideScope, wideLen, execs := fuzzStream(data)
		if len(execs) == 0 {
			return
		}
		tr := newTracker(scope)
		w := slice.LinkedWindow(scope, execs)
		wide := *w
		wide.Scope = int64(wideScope)
		sl, wideSl := &slice.Slicer{MaxLen: maxLen}, &slice.Slicer{MaxLen: wideLen}
		for _, e := range execs {
			ent := tr.Observe(e)
			if e.Inst.Op != isa.LD {
				continue
			}
			got := sl.Backward(w, e.Seq)
			want := refBackward(maxLen, tr, ent)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seq %d (scope %d, maxlen %d): slice\n%+v\nreference\n%+v", e.Seq, scope, maxLen, got, want)
			}
			if cut := slice.Cut(wideSl.Backward(&wide, e.Seq), scope, maxLen); !reflect.DeepEqual(cut, got) {
				t.Fatalf("seq %d: slice at (scope %d, maxlen %d) cut to (%d, %d)\n%+v\nnarrow slice\n%+v",
					e.Seq, wideScope, wideLen, scope, maxLen, cut, got)
			}
		}
	})
}

// TestBackwardSteadyStateAllocs pins the slicer's zero-allocation contract:
// once its scratch has grown to a miss's slice, slicing it again allocates
// nothing.
func TestBackwardSteadyStateAllocs(t *testing.T) {
	w, err := workload.ByName("vpr.r")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(1)
	tr := recordFor(t, p, 30_000)
	win := &slice.Window{Recs: make([]frontend.Rec, 1024), Mask: 1023, Scope: 1024, Text: p.Insts}
	// The first load after 20k instructions, sliced with a full window.
	dec := tr.Decode()
	rd := tr.Reader()
	miss := int64(0)
	for ; ; miss++ {
		rec := &win.Recs[miss&win.Mask]
		if !rd.Next(rec) {
			t.Fatal("no load after 20k instructions")
		}
		win.Rename(miss, &dec[rec.PC])
		if miss >= 20_000 && isa.Class(dec[rec.PC].Class) == isa.ClassLoad {
			break
		}
	}
	sl := &slice.Slicer{MaxLen: 32}
	if n := len(sl.Backward(win, miss)); n < 2 {
		t.Fatalf("slice of %d instructions: want a load with producers", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { sl.Backward(win, miss) }); allocs != 0 {
		t.Errorf("warm Slicer.Backward allocates %.0f times per call, want 0", allocs)
	}
}

// TestProfileShapesMatchesPerShape pins the one-pass multi-shape profile to
// separate single-shape profiles: over every built-in workload and every
// synth.Zoo scenario, whole-run and regioned, each shape's regions from one
// ProfileShapes pass must deeply equal Profile's for that shape alone. The
// shape sets vary the scope only, the length only, and both at once with
// neither shape containing the other.
func TestProfileShapesMatchesPerShape(t *testing.T) {
	type shape struct{ scope, maxLen int }
	sets := map[string][]shape{
		"scope":     {{256, 32}, {1024, 32}, {512, 32}},
		"length":    {{1024, 8}, {1024, 32}, {1024, 16}},
		"nonnested": {{64, 32}, {1024, 4}},
	}
	measure := int64(20_000)
	if testing.Short() {
		measure = 5_000
	}
	for _, pr := range equivPrograms(t) {
		t.Run(pr.name, func(t *testing.T) {
			t.Parallel()
			tr := recordFor(t, pr.p, 2*(5_000+measure))
			for name, set := range sets {
				for _, region := range []int64{0, measure / 4} {
					base := slice.ProfileOptions{WarmInsts: 5_000, MaxInsts: measure, RegionInsts: region}
					opts := make([]slice.ProfileOptions, len(set))
					for i, sh := range set {
						opts[i] = base
						opts[i].Scope, opts[i].MaxSlice = sh.scope, sh.maxLen
					}
					got, err := slice.ProfileShapes(context.Background(), tr, opts)
					if err != nil {
						t.Fatalf("%s region=%d: %v", name, region, err)
					}
					if len(got) != len(opts) {
						t.Fatalf("%s region=%d: %d region lists for %d shapes", name, region, len(got), len(opts))
					}
					for i, o := range opts {
						want, err := slice.Profile(pr.p, o)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got[i], want) {
							t.Errorf("%s region=%d: shape (%d, %d) differs from its own profile", name, region, o.Scope, o.MaxSlice)
						}
					}
				}
			}
		})
	}
}

// TestProfileShapesRejectsMixedOptions checks that a pass refuses shapes
// that differ in anything but scope and length.
func TestProfileShapesRejectsMixedOptions(t *testing.T) {
	w, err := workload.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	opts := []slice.ProfileOptions{
		{MaxInsts: 5_000, Scope: 64},
		{MaxInsts: 5_000, Scope: 1024, RegionInsts: 1_000},
	}
	tr := recordFor(t, w.Build(1), 5_000)
	if _, err := slice.ProfileShapes(context.Background(), tr, opts); err == nil {
		t.Error("a pass over shapes with different region sizes succeeded")
	}
	if _, err := slice.ProfileShapes(context.Background(), tr, nil); err == nil {
		t.Error("a pass over no shapes succeeded")
	}
}

// TestProfileStreamedSource pins the profile of a whole run: with MaxInsts
// unbounded, a halting workload's timing trace records up to HALT, and its
// profile must deeply equal both the standalone profiler's, which records
// the run itself, and the frozen reference.
func TestProfileStreamedSource(t *testing.T) {
	ctx := context.Background()
	w, err := workload.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	p := w.BuildTest(1)
	whole, err := timing.RecordTrace(ctx, p, timing.Config{WarmInsts: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	oracle := cpu.New(p)
	if _, err := oracle.Run(1 << 62); err != nil {
		t.Fatal(err)
	}
	if !whole.Halted() || whole.Err() != nil || int64(whole.Records()) != oracle.Count {
		t.Fatalf("unbounded run recorded %d records (halted %v, err %v), want all %d to HALT",
			whole.Records(), whole.Halted(), whole.Err(), oracle.Count)
	}
	n := oracle.Count
	for _, opts := range []slice.ProfileOptions{
		{WarmInsts: 5_000, Scope: 64, MaxSlice: 8},
		{WarmInsts: 5_000, RegionInsts: n / 3},
	} {
		want, err := refProfile(ctx, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := slice.ProfileShapes(ctx, whole, []slice.ProfileOptions{opts})
		if err != nil {
			t.Fatal(err)
		}
		standalone, err := slice.ProfileContext(ctx, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[0], standalone) {
			t.Errorf("%+v: whole-run profile differs from the standalone one", opts)
		}
		if !reflect.DeepEqual(got[0], want) {
			t.Errorf("%+v: whole-run profile differs from the reference profiler", opts)
		}
	}
}
