package pthread

import (
	"fmt"
	"reflect"
	"testing"

	"preexec/internal/isa"
)

// Every field of the types TimingKey walks is classified here, either as
// read by the timing backend (and so encoded in the key) or as a model
// output the backend never reads. A field added to PThread, BodyInst or
// isa.Inst fails TestTimingKeyClassifiesEveryField until it is placed in
// one of the two sets (and, if timing-read, encoded by TimingKey).
var (
	timingRead = map[reflect.Type][]string{
		reflect.TypeFor[PThread]():  {"TriggerPC", "Body", "RegionStart", "RegionEnd"},
		reflect.TypeFor[BodyInst](): {"Inst", "Dep", "MemDep"},
		reflect.TypeFor[isa.Inst](): {"Op", "Rd", "Rs1", "Rs2", "Imm", "Target"},
	}
	modelOnly = map[reflect.Type][]string{
		reflect.TypeFor[PThread](): {"Roots", "DCtrig", "DCptcm", "LT", "OH", "ADVagg", "FullCov"},
	}
)

func TestTimingKeyClassifiesEveryField(t *testing.T) {
	for typ := range timingRead {
		class := make(map[string]int)
		for _, f := range timingRead[typ] {
			class[f]++
		}
		for _, f := range modelOnly[typ] {
			class[f]++
		}
		for i := range typ.NumField() {
			name := typ.Field(i).Name
			switch class[name] {
			case 0:
				t.Errorf("%s.%s is unclassified: add it to timingRead (and TimingKey) or modelOnly", typ, name)
			case 2:
				t.Errorf("%s.%s is classified as both timing-read and model-only", typ, name)
			}
			delete(class, name)
		}
		for name := range class {
			t.Errorf("%s has no field %s", typ, name)
		}
	}
}

// perturb changes v in place to a different value of its kind; a slice
// grows by one zero element.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint8:
		v.SetUint(v.Uint() ^ 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1.5)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	default:
		t.Fatalf("no perturbation for kind %s", v.Kind())
	}
}

// TestTimingKeyTracksTimingReadFields perturbs every timing-read field of
// the first p-thread of the pharmacy set in turn — descending into a body
// instruction and its isa.Inst, and treating the Body slice itself as its
// length — and requires each change to change the key.
func TestTimingKeyTracksTimingReadFields(t *testing.T) {
	base := TimingKey([]*PThread{pharmacyF(), pharmacyJ()})
	check := func(path string, mutate func(pt *PThread)) {
		t.Helper()
		pt := pharmacyF()
		mutate(pt)
		if TimingKey([]*PThread{pt, pharmacyJ()}) == base {
			t.Errorf("changing %s leaves the timing key unchanged", path)
		}
	}
	for _, name := range timingRead[reflect.TypeFor[PThread]()] {
		check("PThread."+name, func(pt *PThread) { perturb(t, reflect.ValueOf(pt).Elem().FieldByName(name)) })
	}
	for _, name := range timingRead[reflect.TypeFor[BodyInst]()] {
		if name == "Inst" {
			for _, in := range timingRead[reflect.TypeFor[isa.Inst]()] {
				check("BodyInst.Inst."+in, func(pt *PThread) {
					perturb(t, reflect.ValueOf(&pt.Body[2].Inst).Elem().FieldByName(in))
				})
			}
			continue
		}
		f := reflect.ValueOf(&pharmacyF().Body[2]).Elem().FieldByName(name)
		if f.Kind() == reflect.Array {
			for k := range f.Len() {
				check(fmt.Sprintf("BodyInst.%s[%d]", name, k), func(pt *PThread) {
					perturb(t, reflect.ValueOf(&pt.Body[2]).Elem().FieldByName(name).Index(k))
				})
			}
			continue
		}
		check("BodyInst."+name, func(pt *PThread) {
			perturb(t, reflect.ValueOf(&pt.Body[2]).Elem().FieldByName(name))
		})
	}
	// Order and multiplicity are read too: trigger lists launch in
	// selection order, and a repeated p-thread launches twice.
	if TimingKey([]*PThread{pharmacyJ(), pharmacyF()}) == base {
		t.Error("reordering the set leaves the timing key unchanged")
	}
	if TimingKey([]*PThread{pharmacyF(), pharmacyJ(), pharmacyJ()}) == base {
		t.Error("repeating a p-thread leaves the timing key unchanged")
	}
	if TimingKey(nil) != TimingKey([]*PThread{}) {
		t.Error("nil and empty sets have different keys")
	}
}

func TestTimingKeyIgnoresModelOnlyFields(t *testing.T) {
	base := TimingKey([]*PThread{pharmacyF(), pharmacyJ()})
	for _, name := range modelOnly[reflect.TypeFor[PThread]()] {
		pt := pharmacyF()
		perturb(t, reflect.ValueOf(pt).Elem().FieldByName(name))
		if TimingKey([]*PThread{pt, pharmacyJ()}) != base {
			t.Errorf("changing model-only PThread.%s changes the timing key", name)
		}
	}
}
