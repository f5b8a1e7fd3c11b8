package bench

import (
	"encoding/json"
	"io"
)

// Gate statuses.
const (
	// GateOK: the gate ran and passed.
	GateOK = "ok"
	// GateSkipped: the gate did not run; Reason says why. A skip is an
	// explicit, machine-readable event — a gate silently absent from the
	// output is indistinguishable from one that never existed, which is
	// how the wall-speedup gate went dark on small CI runners.
	GateSkipped = "skipped"
	// GateFailed: the gate ran and failed.
	GateFailed = "failed"
)

// gateStatusExperiment tags GateStatus rows in mixed NDJSON streams.
const gateStatusExperiment = "gate_status"

// GateStatus is one CI-gate decision, NDJSON-encoded alongside the
// benchmark rows it gates so the bench artifact is self-describing:
// every gate that could have run appears exactly once, as ok, skipped
// (with the machine condition that forced the skip), or failed.
type GateStatus struct {
	Experiment string `json:"experiment"`
	// Gate names the gate, e.g. "parallel_windows_wall_speedup".
	Gate string `json:"gate"`
	// Status is GateOK, GateSkipped, or GateFailed.
	Status string `json:"status"`
	// Reason is human-readable context: why a skip happened, what a
	// failure measured.
	Reason string `json:"reason,omitempty"`
	// NumCPU records the runner's CPU count — the condition the
	// wall-speedup gate skips on.
	NumCPU int `json:"num_cpu"`
	// Workers is the worker count the gate examined (0 when the gate is
	// not about a specific worker count).
	Workers int `json:"workers,omitempty"`
	// Speedup is the measured wall-clock speedup the gate judged, and
	// MinSpeedup the enforced threshold — recorded even on skip and
	// failure so the artifact states what was (or would have been)
	// required, not just the verdict.
	Speedup    float64 `json:"speedup,omitempty"`
	MinSpeedup float64 `json:"min_speedup,omitempty"`
}

// NewGateStatus builds a row with the experiment tag set.
func NewGateStatus(gate, status, reason string, numCPU int) GateStatus {
	return GateStatus{Experiment: gateStatusExperiment, Gate: gate, Status: status, Reason: reason, NumCPU: numCPU}
}

// WriteGateStatuses appends rows as line-delimited JSON.
func WriteGateStatuses(w io.Writer, rows []GateStatus) error {
	enc := json.NewEncoder(w)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
