package preexec

import (
	"testing"

	"preexec/internal/pthread"
	"preexec/internal/timing"
)

// stagekeyGrid crosses every axis cmd/tsweep exposes (scope, maxlen, opt,
// merge, region, memlat, selmemlat, width, selwidth) and the profile window
// with a default and a variant value: 1024 configurations covering every
// combination of stage-feeding and stage-irrelevant knobs.
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
		{{"profile=0", nil}, {"profile=240000", func(c *Config) { c.Selection.ProfileInsts = 240_000 }}},
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
// base-run reduction. trace and preTrace are the identities of the base
// and pre-execution runs' trace lookups, which must land on one entry;
// profTrace is the profile's trace lookup, and pass the sweep plan's group
// of the profile.
type localStageIdentity struct {
	base                       TimingConfig
	trace, preTrace, profTrace traceKey
	prof                       ProfileOptions
	pass                       profileKey
}

func localStageIdentityOf(cfg Config) localStageIdentity {
	n := cfg.Normalized()
	span := func(tc TimingConfig) traceKey {
		return traceKey{span: timing.TraceSpan(tc), version: timing.TraceVersion}
	}
	return localStageIdentity{
		base:      normalizeBaseTiming(n.timing(ModeBase)),
		trace:     span(n.timing(ModeBase)),
		preTrace:  span(n.timing(ModeNormal)),
		profTrace: span(n.profileTiming()),
		prof:      n.profileOptions(),
		pass:      groupKey(nil, n.profileOptions()),
	}
}

// TestStageKeysMatchLocalCacheIdentity is the single-source regression for
// the key renderer: across the full cmd/tsweep axis cross product, two cells
// share a rendered stage key exactly when the StageCache would group them
// onto one entry. The serve coordinator routes by these rendered keys, so
// any drift between routing identity and local memoization — a knob
// rendered into the string but not the struct key, or vice versa — fails
// here for the axis that drifted.
func TestStageKeysMatchLocalCacheIdentity(t *testing.T) {
	cfgs := stagekeyGrid()
	keys := make([]StageKeySet, len(cfgs))
	ids := make([]localStageIdentity, len(cfgs))
	for i, cfg := range cfgs {
		keys[i] = StageKeys("bench", 1, cfg)
		ids[i] = localStageIdentityOf(cfg)
		// The pre-execution run replays the trace its base run recorded.
		if ids[i].preTrace != ids[i].trace {
			t.Fatalf("config %d: pre-execution trace identity %+v, base run's %+v", i, ids[i].preTrace, ids[i].trace)
		}
		// The default profile window reads the base run's trace.
		if cfg.Selection.ProfileInsts == 0 && keys[i].ProfileTrace != keys[i].Trace {
			t.Fatalf("config %d: profile trace %s, base run's %s", i, keys[i].ProfileTrace, keys[i].Trace)
		}
	}
	for i := range cfgs {
		for j := i + 1; j < len(cfgs); j++ {
			a, b := ids[i], ids[j]
			for _, c := range []struct {
				stage      string
				ki, kj     string
				cacheEqual bool
			}{
				{"base", keys[i].Base, keys[j].Base, a.base == b.base},
				{"profile", keys[i].Profile, keys[j].Profile, a.prof == b.prof},
				{"trace", keys[i].Trace, keys[j].Trace, a.trace == b.trace},
				{"profile trace", keys[i].ProfileTrace, keys[j].ProfileTrace, a.profTrace == b.profTrace},
				{"profile pass", keys[i].ProfilePass, keys[j].ProfilePass, a.pass == b.pass},
			} {
				if got := c.ki == c.kj; got != c.cacheEqual {
					t.Errorf("configs %d/%d: %s keys equal=%v, cache identity equal=%v\n i: %s\n j: %s",
						i, j, c.stage, got, c.cacheEqual, c.ki, c.kj)
				}
			}
		}
	}
}

// TestStageKeysDisambiguate pins the key namespace: benchmark, scale, and
// stage prefix must each separate otherwise-identical cells.
func TestStageKeysDisambiguate(t *testing.T) {
	cfg := DefaultConfig()
	a := StageKeys("crafty", 1, cfg)
	if b := StageKeys("mcf", 1, cfg); b.Base == a.Base || b.Profile == a.Profile || b.Trace == a.Trace {
		t.Errorf("different benchmarks share a stage key: %+v vs %+v", a, b)
	}
	if b := StageKeys("crafty", 2, cfg); b.Base == a.Base || b.Profile == a.Profile || b.Trace == a.Trace {
		t.Errorf("different scales share a stage key: %+v vs %+v", a, b)
	}
	if a.Base == a.Profile || a.Base == a.Trace || a.Profile == a.Trace {
		t.Errorf("stage keys collide across stages: %+v", a)
	}
}

// TestTraceKeyFollowsSpan pins what the trace key carries: the run's
// TraceSpan. Memory latency and widths up to 16 leave it alone, while a
// wider machine or another window needs a recording of its own.
func TestTraceKeyFollowsSpan(t *testing.T) {
	key := func(mutate func(*Config)) string {
		cfg := DefaultConfig()
		mutate(&cfg)
		return StageKeys("crafty", 1, cfg).Trace
	}
	a := key(func(*Config) {})
	for _, c := range []struct {
		name   string
		mutate func(*Config)
		shared bool
	}{
		{"width=1", func(c *Config) { c.Machine.Width = 1 }, true},
		{"width=16", func(c *Config) { c.Machine.Width = 16 }, true},
		{"memlat=300", func(c *Config) { c.Machine.MemLat = 300 }, true},
		{"width=32", func(c *Config) { c.Machine.Width = 32 }, false},
		{"measure=60000", func(c *Config) { c.Machine.MeasureInsts = 60_000 }, false},
		{"warm=1000", func(c *Config) { c.Machine.WarmInsts = 1_000 }, false},
	} {
		if b := key(c.mutate); (b == a) != c.shared {
			t.Errorf("%s: trace key %q, default machine's %q; want shared=%t", c.name, b, a, c.shared)
		}
	}
}

// TestReplayKeyMatchesMemoIdentity extends the single-source regression to
// the replay memo: across the axis cross product with the RS throttle on
// and off, two cells that selected the same p-threads share a ReplayKey
// exactly when a sweep's replay memo would share their pre-execution run.
// Another p-thread set always separates them, and an empty selection has
// no replay identity (its run is the base run).
func TestReplayKeyMatchesMemoIdentity(t *testing.T) {
	pts := []*PThread{{TriggerPC: 3, Body: []pthread.BodyInst{{Dep: [2]int{pthread.DepTrigger, pthread.DepLiveIn}, MemDep: pthread.DepLiveIn}}}}
	var cfgs []Config
	for _, cfg := range stagekeyGrid() {
		cfgs = append(cfgs, cfg)
		cfg.Ablation.NoRSThrottle = true
		cfgs = append(cfgs, cfg)
	}
	keys := make([]string, len(cfgs))
	runs := make([]runKey, len(cfgs))
	for i, cfg := range cfgs {
		keys[i] = ReplayKey("bench", 1, cfg, pts)
		runs[i] = runKey{cfg: cfg.Normalized().timing(ModeNormal), pts: pthread.TimingKey(pts)}
	}
	for i := range cfgs {
		for j := i + 1; j < len(cfgs); j++ {
			if got, want := keys[i] == keys[j], runs[i] == runs[j]; got != want {
				t.Fatalf("configs %d/%d: replay keys equal=%v, memo identity equal=%v\n i: %s\n j: %s",
					i, j, got, want, keys[i], keys[j])
			}
		}
	}
	other := []*PThread{{TriggerPC: 4, Body: pts[0].Body}}
	if ReplayKey("bench", 1, cfgs[0], other) == keys[0] {
		t.Error("different p-thread sets share a replay key")
	}
	if k := ReplayKey("bench", 1, cfgs[0], nil); k != "" {
		t.Errorf("empty selection has replay key %q, want none", k)
	}
}
