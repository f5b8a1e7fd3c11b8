package ingest

import (
	"reflect"
	"testing"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/dataset"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/fault"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/track"
)

// TestIngestorSurvivesMidStreamOutage crashes the ReID device while the
// stream is flowing and restores it 200 frames later. The stream must
// keep flowing: the window that closes during the outage is selected in
// degraded mode, no window is dropped, and the windows processed after
// the restore match a fault-free run exactly (TMerge derives its sampling
// streams per window from a fixed seed, so selections are history-free).
//
// Timeline with L=1000 over 2400 frames: windows close at frames 999,
// 1499, 1999, and Close flushes two clipped tails. The device is down for
// frames [1400, 1600), so only window 1 (closing at 1499) sees the
// outage.
func TestIngestorSurvivesMidStreamOutage(t *testing.T) {
	v := streamScene(t)

	newCfg := func() Config {
		tc := core.DefaultTMergeConfig(5)
		tc.TauMax = 4000
		return Config{WindowLen: 1000, K: 0.05, Algorithm: core.NewTMerge(tc)}
	}

	// Fault-free sequential reference.
	ref, err := newReference(track.Tracktor(),
		reid.NewOracle(reid.NewModel(7, dataset.AppearanceDim), device.NewCPU(device.DefaultCPU)),
		newCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, dets := range v.Detections {
		ref.Push(dets)
	}
	ref.Close()

	// Faulty runs: same model over a crashable device behind the
	// resilient wrapper, on the window engine and on the sequential
	// reference. Zero cooldown: the breaker probes again on the very next
	// submission, so recovery is immediate once the device is back.
	faultyRun := func(newSession func(*track.Engine, *reid.Oracle, Config) (*Ingestor, error)) (*Ingestor, *fault.Flaky, *device.ResilientDevice) {
		flaky := fault.NewFlaky(device.NewCPU(device.DefaultCPU), fault.Config{})
		rd := device.NewResilientDevice(flaky,
			device.RetryPolicy{MaxAttempts: 3, Jitter: -1},
			device.BreakerConfig{Threshold: 3, Cooldown: -1, CooldownRejections: -1},
			13)
		oracle := reid.NewOracle(reid.NewModel(7, dataset.AppearanceDim), rd)
		in, err := newSession(track.Tracktor(), oracle, newCfg())
		if err != nil {
			t.Fatal(err)
		}
		for f, dets := range v.Detections {
			if f == 1400 {
				flaky.Crash()
			}
			if f == 1600 {
				flaky.Restore()
			}
			in.Push(dets)
		}
		in.Close()
		return in, flaky, rd
	}
	in, flaky, rd := faultyRun(New)
	seq, seqFlaky, seqRD := faultyRun(newReference)
	if !reflect.DeepEqual(in.Results(), seq.Results()) ||
		in.Oracle().Stats() != seq.Oracle().Stats() ||
		rd.Counters() != seqRD.Counters() || flaky.Counters() != seqFlaky.Counters() {
		t.Errorf("faulty stream diverged from the sequential reference: stats %+v vs %+v, resilience %+v vs %+v",
			in.Oracle().Stats(), seq.Oracle().Stats(), rd.Counters(), seqRD.Counters())
	}

	got, want := in.Results(), ref.Results()
	if len(got) != len(want) {
		t.Fatalf("faulty stream produced %d windows, reference %d", len(got), len(want))
	}
	for i, res := range got {
		wantDegraded := i == 1
		if res.Degraded != wantDegraded {
			t.Errorf("window %d: Degraded = %v, want %v", i, res.Degraded, wantDegraded)
		}
		if res.Pairs != want[i].Pairs {
			t.Errorf("window %d: %d pairs, reference %d — pair universes must not depend on the device",
				i, res.Pairs, want[i].Pairs)
		}
		if wantDegraded {
			// The degraded window still ranks its candidates.
			if res.Pairs > 0 && len(res.Selected) == 0 {
				t.Errorf("window %d degraded with %d pairs but selected nothing", i, res.Pairs)
			}
			continue
		}
		if len(res.Selected) != len(want[i].Selected) {
			t.Errorf("window %d: %d selected, reference %d", i, len(res.Selected), len(want[i].Selected))
			continue
		}
		for j := range res.Selected {
			if res.Selected[j] != want[i].Selected[j] {
				t.Errorf("window %d pos %d: selection diverged: %v vs %v",
					i, j, res.Selected[j], want[i].Selected[j])
			}
		}
	}
	// The outage window must actually have had work to degrade.
	if got[1].Pairs == 0 {
		t.Fatal("outage window has no pairs; the drill exercised nothing")
	}

	// Breaker and fault counters show the outage really happened and was
	// recovered from.
	rc := rd.Counters()
	if rc.Trips == 0 || rc.Failures == 0 {
		t.Errorf("no breaker activity recorded: %+v", rc)
	}
	if fc := flaky.Counters(); fc.Outages == 0 {
		t.Errorf("no outage attempts recorded: %+v", fc)
	}
	if st := rd.State(); st != device.BreakerClosed {
		t.Errorf("breaker finished %v, want closed", st)
	}

	// The merged track set is still valid and queryable after the fault.
	ts := in.MergedTracks()
	if ts.Len() == 0 {
		t.Fatal("no tracks after faulted stream")
	}
	for _, tr := range ts.Tracks() {
		if err := tr.Validate(); err != nil {
			t.Fatalf("post-outage track invalid: %v", err)
		}
	}
}

// TestIngestorPermanentOutageDegradesEverything: a device that never
// recovers must not wedge the stream — every window with pairs degrades
// to the spatial prior and the session still closes cleanly.
func TestIngestorPermanentOutageDegradesEverything(t *testing.T) {
	v := streamScene(t)
	flaky := fault.NewFlaky(device.NewCPU(device.DefaultCPU), fault.Config{})
	flaky.Crash()
	rd := device.NewResilientDevice(flaky,
		device.RetryPolicy{MaxAttempts: 2, Jitter: -1},
		device.BreakerConfig{Threshold: 2, Cooldown: -1, CooldownRejections: -1},
		13)
	oracle := reid.NewOracle(reid.NewModel(7, dataset.AppearanceDim), rd)
	tc := core.DefaultTMergeConfig(5)
	tc.TauMax = 4000
	in, err := New(track.Tracktor(), oracle, Config{
		WindowLen: 1000, K: 0.05, Algorithm: core.NewTMerge(tc),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dets := range v.Detections {
		in.Push(dets)
	}
	in.Close()

	for _, res := range in.Results() {
		if res.Pairs > 0 && !res.Degraded {
			t.Errorf("window %d with %d pairs not degraded under permanent outage", res.Window.Index, res.Pairs)
		}
		if res.Pairs > 0 && len(res.Selected) == 0 {
			t.Errorf("window %d selected nothing", res.Window.Index)
		}
	}
	if o := oracle.Stats(); o.Extractions != 0 || o.Distances != 0 {
		t.Errorf("oracle recorded work under permanent outage: %+v", o)
	}
}
