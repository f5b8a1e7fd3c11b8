package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Fingerprint digests every determinism-relevant field of the result —
// window reports (selected pairs included), recall, oracle stats,
// virtual time, resilience counters, and the merged track set — into a
// hex SHA-256 string. A merged track is digested by its ID and its box
// IDs only, not geometry or appearance, so a streaming session whose
// retired tracks carry no Obs fingerprints like one that kept them. Two passes over the same input with the same
// configuration must fingerprint identically regardless of
// PipelineConfig.Workers; the CI bench gate fails on any mismatch.
// Floats are digested by their IEEE-754 bit patterns, so the comparison
// is bit-exact, not tolerance-based.
func (r *PipelineResult) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	i64 := func(v int64) { u64(uint64(v)) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			u64(1)
		} else {
			u64(0)
		}
	}

	i64(int64(len(r.Windows)))
	for _, w := range r.Windows {
		i64(int64(w.Window.Index))
		i64(int64(w.Window.Start))
		i64(int64(w.Window.End))
		i64(int64(w.Window.Nominal))
		i64(int64(w.Pairs))
		i64(int64(w.Truth))
		i64(int64(len(w.Selected)))
		for _, k := range w.Selected {
			i64(int64(k.A))
			i64(int64(k.B))
		}
		f64(w.Recall)
		b(w.Degraded)
	}
	f64(r.REC)
	i64(r.Stats.Distances)
	i64(r.Stats.Extractions)
	i64(r.Stats.CacheHits)
	i64(int64(r.Virtual))
	i64(int64(r.FramesProcessed))
	i64(int64(r.DegradedWindows))
	i64(r.Resilience.Submissions)
	i64(r.Resilience.Attempts)
	i64(r.Resilience.Retries)
	i64(r.Resilience.Failures)
	i64(r.Resilience.Rejected)
	i64(r.Resilience.Trips)
	i64(r.Resilience.Probes)
	if r.Merged != nil {
		tracks := r.Merged.Sorted()
		i64(int64(len(tracks)))
		for _, t := range tracks {
			i64(int64(t.ID))
			i64(int64(len(t.Boxes)))
			for _, bb := range t.Boxes {
				u64(uint64(bb.ID))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
