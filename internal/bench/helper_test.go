package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/reid"
)

// newTestTMerge builds a TMerge instance with a reduced budget for tests.
func newTestTMerge(s *Suite, tau int) *core.TMerge {
	cfg := core.DefaultTMergeConfig(s.Seed + 1)
	cfg.TauMax = tau
	return core.NewTMerge(cfg)
}

// newOracleForTest builds a fresh CPU oracle against the suite's model.
func newOracleForTest(s *Suite) *reid.Oracle {
	return reid.NewOracle(s.Model(), device.NewCPU(device.DefaultCPU))
}

// decodeRows reads the rows of one experiment from a mixed NDJSON
// stream: blank lines and rows of other experiments are skipped.
func decodeRows[T any](r io.Reader, experiment string, of func(T) string) ([]T, error) {
	var out []T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var row T
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			return nil, fmt.Errorf("bench: decoding row %q: %w", line, err)
		}
		if of(row) == experiment {
			out = append(out, row)
		}
	}
	return out, sc.Err()
}

// DecodeGateStatuses reads GateStatus rows from a mixed NDJSON stream.
func DecodeGateStatuses(r io.Reader) ([]GateStatus, error) {
	return decodeRows(r, gateStatusExperiment, func(g GateStatus) string { return g.Experiment })
}

// DecodeHistBench reads histbench rows from a mixed NDJSON stream.
func DecodeHistBench(r io.Reader) ([]HistBenchRow, error) {
	return decodeRows(r, histBenchExperiment, func(h HistBenchRow) string { return h.Experiment })
}

// DecodeServeBench reads rows written by WriteServeBench.
func DecodeServeBench(r io.Reader) ([]ServeBenchResult, error) {
	return decodeRows(r, serveBenchExperiment, func(s ServeBenchResult) string { return s.Experiment })
}
