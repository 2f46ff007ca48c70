package timing

// Exports for the external test package, whose differentials need programs
// from packages that import this one: the frozen reference core
// (refsim_test.go) and the five simulation modes.
var (
	RefRun   = refRun
	AllModes = allModes
)
