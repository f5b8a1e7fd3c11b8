package ingest

import (
	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/device"
)

// Result assembles the session's cumulative outcome as a
// core.PipelineResult, the same shape a batch RunPipeline pass returns,
// so a streaming session can be fingerprinted (core.Fingerprint) and
// compared bit-for-bit against another run of the same frames — the
// serving layer's recovery proof does exactly that. Ground-truth fields
// (Truth, Recall, REC) are zero-valued the same way on every streaming
// session — ingestion never sees GT labels — so they never distinguish
// two runs. Counters (Stats, Virtual, Resilience) are session-absolute:
// they cover everything since the session (or its restored ancestor)
// began, which is what makes a crash-recovered session comparable to an
// uninterrupted one.
//
// Like most of the Ingestor API, Result must not be called concurrently
// with PushAt or Close.
func (in *Ingestor) Result() *core.PipelineResult {
	res := &core.PipelineResult{
		FramesProcessed: in.FramesSeen(),
		REC:             1, // no truth signal; matches the batch convention for zero labelled windows
	}
	for _, r := range in.results {
		if r.Degraded {
			res.DegradedWindows++
		}
		res.Windows = append(res.Windows, core.WindowReport{
			Window:   r.Window,
			Pairs:    r.Pairs,
			Selected: r.Selected,
			Degraded: r.Degraded,
			Events:   r.Events,
		})
	}
	res.Merged = in.MergedTracks()
	res.Stats = in.oracle.Stats()
	res.Virtual = in.oracle.Device().Clock().Elapsed()
	if rd := device.FindResilient(in.oracle.Device()); rd != nil {
		res.Resilience = rd.Counters()
	}
	return res
}
