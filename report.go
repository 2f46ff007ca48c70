package preexec

import "encoding/json"

// Report is a complete evaluation of one program under one configuration.
// It marshals to JSON with the derived percentage metrics included (the
// -json output of cmd/tsim and cmd/texp).
type Report struct {
	Program string `json:"program"`
	Config  Config `json:"config"`

	// Base is the unassisted run; Pre the pre-execution run.
	Base Stats `json:"base"`
	Pre  Stats `json:"pre"`

	// PThreads are the selected static p-threads; Pred the model's forecast
	// of their dynamic behaviour.
	PThreads []*PThread `json:"pthreads"`
	Pred     Prediction `json:"prediction"`

	// BaseMisses is the measured machine's demand-miss count — the
	// denominator for the paper's coverage percentages.
	BaseMisses int64 `json:"base_misses"`
	// PredIPC is the model's IPC forecast for the pre-execution run.
	PredIPC float64 `json:"predicted_ipc"`
}

// CoveragePct returns measured miss coverage as a percentage of base misses.
func (r Report) CoveragePct() float64 {
	if r.BaseMisses == 0 {
		return 0
	}
	return 100 * float64(r.Pre.MissesCovered) / float64(r.BaseMisses)
}

// FullCoveragePct returns measured full coverage.
func (r Report) FullCoveragePct() float64 {
	if r.BaseMisses == 0 {
		return 0
	}
	return 100 * float64(r.Pre.MissesFullCovered) / float64(r.BaseMisses)
}

// SpeedupPct returns the measured percent speedup of pre-execution.
func (r Report) SpeedupPct() float64 {
	if r.Base.IPC == 0 {
		return 0
	}
	return (r.Pre.IPC/r.Base.IPC - 1) * 100
}

// MarshalJSON includes the derived metrics alongside the raw fields.
func (r Report) MarshalJSON() ([]byte, error) {
	type plain Report // avoid recursing into this method
	return json.Marshal(struct {
		plain
		CoveragePct     float64 `json:"coverage_pct"`
		FullCoveragePct float64 `json:"full_coverage_pct"`
		SpeedupPct      float64 `json:"speedup_pct"`
	}{plain(r), r.CoveragePct(), r.FullCoveragePct(), r.SpeedupPct()})
}
