package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"preexec"
)

// checkReport tests the invariants every report must satisfy. Each holds by
// construction and held on every report of seeds 1-3 of every workload
// when the benchmark was introduced; README.md lists the candidates that
// did not and were left out.
func checkReport(r preexec.Report) error {
	// Both runs retire the same instruction stream; each may overshoot the
	// warm-up and the measured window by less than one retire bundle.
	slack := 2 * int64(r.Config.Machine.Width)
	switch {
	case r.Base.Retired == 0 || r.Base.Cycles == 0 || r.Pre.Cycles == 0:
		return fmt.Errorf("%s: empty timing run", r.Program)
	case r.Pre.Retired-r.Base.Retired >= slack || r.Base.Retired-r.Pre.Retired >= slack:
		return fmt.Errorf("%s: pre-execution retired %d, base %d", r.Program, r.Pre.Retired, r.Base.Retired)
	case r.Pre.MissesFullCovered > r.Pre.MissesCovered:
		return fmt.Errorf("%s: %d misses fully covered of %d covered", r.Program, r.Pre.MissesFullCovered, r.Pre.MissesCovered)
	case r.Pred.PThreads != len(r.PThreads):
		return fmt.Errorf("%s: model forecast %d p-threads, selection has %d", r.Program, r.Pred.PThreads, len(r.PThreads))
	case len(r.PThreads) == 0 && r.Pre != r.Base:
		return fmt.Errorf("%s: empty selection changed the timing run", r.Program)
	}
	return nil
}

// reportDigest hashes reports in input order, one JSON line each.
func reportDigest(reps []preexec.Report) (string, error) {
	h := sha256.New()
	for _, r := range reps {
		b, err := json.Marshal(r)
		if err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// modelMeans are the simulated-time means over every report: the measured
// speedup and coverage, and the selection model's IPC forecast error
// against the simulator (the paper's section 4.3 check). They are exact for
// a seed; a change meant only for speed must leave them bit-identical.
func modelMeans(reps []preexec.Report) (speedup, coverage, ipcErr float64) {
	for _, r := range reps {
		speedup += r.SpeedupPct()
		coverage += r.CoveragePct()
		if r.Pre.IPC > 0 {
			ipcErr += 100 * math.Abs(r.PredIPC-r.Pre.IPC) / r.Pre.IPC
		}
	}
	n := float64(len(reps))
	return ratio(speedup, n), ratio(coverage, n), ratio(ipcErr, n)
}
