package synth

import "testing"

// benchSpec is the mid-size scenario the synthesis ops use: a 512KB
// clustered chase (ring construction + 64K data words is representative
// generator work).
var benchSpec = Spec{Family: "chase", Seed: 1, FootprintWords: 1 << 16, Iters: 30_000, Clusters: 256}

// generateOp compiles benchSpec.
func generateOp(tb testing.TB) func() {
	return func() {
		if _, err := Generate(benchSpec); err != nil {
			tb.Fatal(err)
		}
	}
}

// assembleOp re-assembles benchSpec's disassembly.
func assembleOp(tb testing.TB) func() {
	src := Disassemble(MustGenerate(benchSpec))
	return func() {
		if _, err := Assemble(src); err != nil {
			tb.Fatal(err)
		}
	}
}

func benchOp(b *testing.B, op func(testing.TB) func()) {
	call := op(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

func BenchmarkSynthGenerate(b *testing.B) { benchOp(b, generateOp) }
func BenchmarkAssemble(b *testing.B)      { benchOp(b, assembleOp) }

// TestAllocCeilings bounds each op's heap allocations per call. A ceiling is
// the count measured when it was set, plus 30% and 32 allocations of
// headroom.
func TestAllocCeilings(t *testing.T) {
	for _, c := range []struct {
		name    string
		op      func(testing.TB) func()
		ceiling float64
	}{
		{"SynthGenerate", generateOp, 580},
		{"Assemble", assembleOp, 10948},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := testing.AllocsPerRun(1, c.op(t))
			if got > c.ceiling {
				t.Errorf("%.0f allocs/op, ceiling %.0f", got, c.ceiling)
			}
			t.Logf("%.0f allocs/op, ceiling %.0f", got, c.ceiling)
		})
	}
}
