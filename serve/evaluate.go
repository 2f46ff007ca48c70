package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"preexec"
)

// evaluateRequest is one benchmark x one configuration. Config is decoded
// over preexec.DefaultConfig, so it only needs the fields that differ from
// the paper's base flow.
type evaluateRequest struct {
	Workload string          `json:"workload"`
	Scale    int             `json:"scale,omitempty"`
	Config   json.RawMessage `json:"config,omitempty"`
}

// evalKey canonicalizes a request for the single-flight layer: identical
// (workload, scale, configuration) triples share one in-flight evaluation.
// The configuration is keyed by its canonical JSON — field order is fixed by
// the struct, so semantically identical requests collide as intended.
func evalKey(name string, scale int, cfg preexec.Config) string {
	raw, err := json.Marshal(cfg)
	if err != nil {
		// Config is a plain data struct; this cannot fail. Degrade to an
		// unshared key rather than panicking in a request handler.
		return fmt.Sprintf("%s|%d|nocoalesce-%p", name, scale, &cfg)
	}
	return strings.ToLower(name) + "|" + fmt.Sprint(scale) + "|" + string(raw)
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req evaluateRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	if req.Workload == "" {
		writeError(w, http.StatusBadRequest, "workload: a benchmark name is required")
		return
	}
	scale := req.Scale
	if scale == 0 {
		scale = 1
	}
	if scale < 1 {
		writeError(w, http.StatusBadRequest, "scale: %d, want >= 1", req.Scale)
		return
	}
	cfg, err := decodeConfig(req.Config)
	if err != nil {
		writeError(w, http.StatusBadRequest, "config: %v", err)
		return
	}
	ctx := r.Context()
	bench, err := s.bench(ctx, req.Workload, scale)
	if err != nil {
		if cancelled(ctx, err) {
			writeError(w, http.StatusServiceUnavailable, "request cancelled: %v", err)
			return
		}
		// The library error already names the workload domain; no prefix.
		writeError(w, statusFor(err), "%v", err)
		return
	}

	rep, err := s.flights.Do(ctx, evalKey(bench.Name, scale, cfg), func() (preexec.Report, error) {
		return s.engine(cfg).Evaluate(ctx, bench.Program)
	})
	if err != nil {
		if cancelled(ctx, err) {
			// A disconnected client never reads this; a connected one (the
			// server is draining) must not see an empty 200.
			writeError(w, http.StatusServiceUnavailable, "evaluation cancelled: %v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "evaluate %s: %v", bench.Name, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}
