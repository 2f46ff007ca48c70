package preexec

import (
	"strings"
	"testing"

	"preexec/internal/timing"
)

// stagekeyGrid crosses every axis cmd/tsweep exposes (scope, maxlen, opt,
// merge, region, memlat, selmemlat, width, selwidth) with a default and a
// variant value: 512 configurations covering every combination of
// stage-feeding and stage-irrelevant knobs.
func stagekeyGrid() []Config {
	type mut struct {
		name  string
		apply func(*Config)
	}
	axes := [][]mut{
		{{"scope=1024", nil}, {"scope=512", func(c *Config) { c.Selection.Scope = 512 }}},
		{{"maxlen=32", nil}, {"maxlen=16", func(c *Config) { c.Selection.MaxLen = 16 }}},
		{{"opt=true", nil}, {"opt=false", func(c *Config) { c.Selection.Optimize = false }}},
		{{"merge=true", nil}, {"merge=false", func(c *Config) { c.Selection.Merge = false }}},
		{{"region=0", nil}, {"region=5000", func(c *Config) { c.Selection.RegionInsts = 5000 }}},
		{{"memlat=70", nil}, {"memlat=140", func(c *Config) { c.Machine.MemLat = 140 }}},
		{{"selmemlat=0", nil}, {"selmemlat=140", func(c *Config) { c.Selection.MemLat = 140 }}},
		{{"width=8", nil}, {"width=4", func(c *Config) { c.Machine.Width = 4 }}},
		{{"selwidth=0", nil}, {"selwidth=4", func(c *Config) { c.Selection.Width = 4 }}},
	}
	cfgs := []Config{DefaultConfig()}
	for _, ax := range axes {
		next := make([]Config, 0, len(cfgs)*len(ax))
		for _, cfg := range cfgs {
			for _, m := range ax {
				c := cfg
				if m.apply != nil {
					m.apply(&c)
				}
				next = append(next, c)
			}
		}
		cfgs = next
	}
	return cfgs
}

// localStageIdentity is the StageCache's view of one configuration: the
// exact struct keys its stages group entries by (program identity held
// fixed). The timing config is derived precisely the way the engine derives
// it for the cached stages — normalization, ModeBase, then the shared
// base-run reduction.
func localStageIdentity(cfg Config) (base TimingConfig, prof ProfileOptions, traceable bool) {
	n := cfg.Normalized()
	base = normalizeBaseTiming(n.timing(ModeBase))
	return base, n.profileOptions(), timing.Traceable(base)
}

// TestStageKeysMatchLocalCacheIdentity is the single-source regression for
// the key renderer: across the full cmd/tsweep axis cross product, two cells
// share a rendered stage key exactly when the StageCache would group them
// onto one entry. The serve coordinator routes by these rendered keys
// (serve's stageKeys delegates to StageKeys), so any drift between routing
// identity and local memoization — a knob rendered into the string but not
// the struct key, or vice versa — fails here for the axis that drifted.
func TestStageKeysMatchLocalCacheIdentity(t *testing.T) {
	cfgs := stagekeyGrid()
	keys := make([]StageKeySet, len(cfgs))
	bases := make([]TimingConfig, len(cfgs))
	profs := make([]ProfileOptions, len(cfgs))
	for i, cfg := range cfgs {
		keys[i] = StageKeys("bench", 1, cfg)
		var traceable bool
		bases[i], profs[i], traceable = localStageIdentity(cfg)
		if (keys[i].Trace != "") != traceable {
			t.Fatalf("config %d: trace key %q, Traceable=%v", i, keys[i].Trace, traceable)
		}
	}
	for i := range cfgs {
		for j := i + 1; j < len(cfgs); j++ {
			if got, want := keys[i].Base == keys[j].Base, bases[i] == bases[j]; got != want {
				t.Errorf("configs %d/%d: base keys equal=%v, cache identity equal=%v\n i: %s\n j: %s",
					i, j, got, want, keys[i].Base, keys[j].Base)
			}
			if got, want := keys[i].Profile == keys[j].Profile, profs[i] == profs[j]; got != want {
				t.Errorf("configs %d/%d: profile keys equal=%v, cache identity equal=%v\n i: %s\n j: %s",
					i, j, got, want, keys[i].Profile, keys[j].Profile)
			}
			// The trace stage groups exactly like the base stage: the
			// recorded stream depends only on the base-run identity.
			if got, want := keys[i].Trace == keys[j].Trace, bases[i] == bases[j]; got != want {
				t.Errorf("configs %d/%d: trace keys equal=%v, base identity equal=%v\n i: %s\n j: %s",
					i, j, got, want, keys[i].Trace, keys[j].Trace)
			}
		}
	}
}

// TestStageKeysDisambiguate pins the key namespace: benchmark, scale, and
// stage prefix must each separate otherwise-identical cells, and the trace
// key must embed the simulator fingerprint so a timing-core version bump
// invalidates routed traces.
func TestStageKeysDisambiguate(t *testing.T) {
	cfg := DefaultConfig()
	a := StageKeys("crafty", 1, cfg)
	if b := StageKeys("mcf", 1, cfg); b.Base == a.Base || b.Profile == a.Profile || b.Trace == a.Trace {
		t.Errorf("different benchmarks share a stage key: %+v vs %+v", a, b)
	}
	if b := StageKeys("crafty", 2, cfg); b.Base == a.Base || b.Profile == a.Profile || b.Trace == a.Trace {
		t.Errorf("different scales share a stage key: %+v vs %+v", a, b)
	}
	set := map[string]bool{a.Base: true, a.Profile: true, a.Trace: true}
	if len(set) != 3 {
		t.Errorf("stage keys collide across stages: %+v", a)
	}
	if !strings.HasSuffix(a.Trace, "|"+timing.TraceVersion) {
		t.Errorf("trace key %q does not end in the simulator fingerprint %q", a.Trace, timing.TraceVersion)
	}

	// An untraceable run (too large to record) renders no trace key.
	big := cfg
	big.Machine.MeasureInsts = 1 << 40
	if ks := StageKeys("crafty", 1, big); ks.Trace != "" {
		t.Errorf("untraceable run rendered trace key %q", ks.Trace)
	}
}
