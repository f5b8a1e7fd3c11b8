package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/dataset"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/histlog"
	"github.com/tmerge/tmerge/internal/query"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/synth"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// longHorizon generates the longhorizon profile's stream of the given
// length: short object lifetimes and steady arrivals, so the track count
// grows with the stream while the live population stays flat.
func longHorizon(t testing.TB, seed uint64, frames int) (*synth.Video, int) {
	t.Helper()
	p := dataset.LongHorizonLike(seed)
	if err := p.ScaleHorizon(frames, 0); err != nil {
		t.Fatal(err)
	}
	ds, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return ds.Videos[0], ds.WindowLen
}

// longHorizonConfig is the longhorizon session configuration the
// pinned fingerprints and the growth test use: TMerge with TauMax 500,
// K 0.05, an automatic checkpoint every 4 windows into sink.
func longHorizonConfig(window int, hist *HistoryConfig, sink func([]byte) error) Config {
	acfg := core.DefaultTMergeConfig(1)
	acfg.TauMax = 500
	return Config{
		WindowLen:           window,
		K:                   0.05,
		Algorithm:           core.NewTMerge(acfg),
		AutoCheckpointEvery: 4,
		CheckpointSink:      sink,
		History:             hist,
	}
}

func longHorizonOracle() *reid.Oracle {
	return reid.NewOracle(reid.NewModel(11, dataset.AppearanceDim), device.NewCPU(device.DefaultCPU))
}

// TestLongHorizonFingerprintsPinned pins the streaming fingerprints of
// 1,200-frame longhorizon sessions, plain and history mode, to the values
// recorded before sessions retired tracks and evicted feature-cache
// entries: retirement must not change what a session computes. The
// values were re-recorded when Gamma moved to the ziggurat normal, and
// again when never-pulled arms moved to grouped prior draws: both change
// TMerge's Thompson draws (accepted by benchrunner -exp claims).
func TestLongHorizonFingerprintsPinned(t *testing.T) {
	want := map[uint64]string{1: "5180df266ba79ae9", 2: "299c1f877d706dc4", 3: "cbfbc9aa26bd0f91"}
	for seed := uint64(1); seed <= 3; seed++ {
		if testing.Short() && seed > 1 {
			continue
		}
		v, window := longHorizon(t, seed, 1200)
		for _, mode := range []string{"plain", "history"} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, mode), func(t *testing.T) {
				var hist *HistoryConfig
				if mode == "history" {
					hist = &HistoryConfig{Dir: t.TempDir()}
				}
				in, err := New(track.Tracktor(), longHorizonOracle(), longHorizonConfig(window, hist, func([]byte) error { return nil }))
				if err != nil {
					t.Fatal(err)
				}
				for f, dets := range v.Detections {
					in.PushAt(video.FrameIndex(f), dets)
				}
				in.Close()
				if err := in.CheckpointErr(); err != nil {
					t.Fatal(err)
				}
				if got := in.Result().Fingerprint(); got[:16] != want[seed] {
					t.Errorf("fingerprint %.16s, pinned %s", got, want[seed])
				}
			})
		}
	}
}

// TestCheckpointGrowthBounded: a session's checkpoint tracks its hot
// state, not the stream. On the longhorizon profile (flat live
// population, track count growing with the stream) the last checkpoint
// at 2,400 frames is at most twice the one at 600 frames, for a history
// session and for a plain session with a standing subscription (whose
// checkpoints once embedded the whole view). Before sessions retired
// tracks and evicted dead feature-cache entries the ratio was about 4.2
// — every finished hypothesis with its per-box Obs and every cached
// embedding rode along.
func TestCheckpointGrowthBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("2,400-frame sessions")
	}
	v, window := longHorizon(t, 1, 2400)
	for _, mode := range []string{"history", "plain-subscribed"} {
		t.Run(mode, func(t *testing.T) {
			var last, at600 int
			var hist *HistoryConfig
			if mode == "history" {
				hist = &HistoryConfig{Dir: t.TempDir()}
			}
			in, err := New(track.Tracktor(), longHorizonOracle(), longHorizonConfig(window, hist,
				func(data []byte) error { last = len(data); return nil }))
			if err != nil {
				t.Fatal(err)
			}
			if hist == nil {
				if _, err := in.Subscribe("count", query.NewIncCount(query.CountQuery{MinFrames: 30})); err != nil {
					t.Fatal(err)
				}
			}
			for f, dets := range v.Detections {
				in.PushAt(video.FrameIndex(f), dets)
				if f == 599 {
					at600 = last
				}
			}
			if err := in.CheckpointErr(); err != nil {
				t.Fatal(err)
			}
			t.Logf("last checkpoint: %d bytes at 600 frames, %d at 2,400 (ratio %.2f)", at600, last, float64(last)/float64(at600))
			if at600 == 0 || last > 2*at600 {
				t.Errorf("last checkpoint grew from %d bytes at 600 frames to %d at 2,400: more than 2×", at600, last)
			}
		})
	}
}

// retireOutcome is everything the differential test compares between a
// retiring session and the never-retire reference.
type retireOutcome struct {
	fingerprint string
	stats       reid.Stats
	virtual     time.Duration
	merged      [][]video.BBoxID // per merged track: its ID, then its box IDs
	results     []WindowResult
	count       [][]video.TrackID // the late subscription's final answer
	retired     int               // ledger length at the end
	cached      int               // feature-cache entries at the end
	staleFed    int               // feed cursors of tracks the stream no longer holds
}

// driveRetire runs one longhorizon session, plain or history mode: a
// subscription registered late (so a plain session backfills its view
// from the ledger), a checkpoint restored into a freshly assembled
// pipeline, frame-by-frame pushes to frame 500, then a gap to the last
// frame that closes several windows in one batch, and Close.
// keepAll runs it as the never-retire, never-evict reference.
func driveRetire(t *testing.T, v *synth.Video, window int, algo func() core.Algorithm, history bool, workers int, keepAll bool) retireOutcome {
	t.Helper()
	var dir string
	if history {
		dir = t.TempDir()
	}
	session := func(restore []byte) (*Ingestor, *reid.Oracle) {
		t.Helper()
		oracle := reid.NewOracle(reid.NewModel(7, dataset.AppearanceDim), device.NewCPU(device.DefaultCPU))
		cfg := Config{WindowLen: window, K: 0.05, Algorithm: algo(), Workers: workers}
		if history {
			cfg.History = &HistoryConfig{Dir: dir, WindowsPerSegment: 2, CompactEvery: 2}
		}
		var in *Ingestor
		var err error
		if restore == nil {
			in, err = New(track.Tracktor(), oracle, cfg)
		} else {
			in, err = Restore(track.Tracktor(), oracle, cfg, restore)
		}
		if err != nil {
			t.Fatal(err)
		}
		in.keepAll = keepAll
		return in, oracle
	}
	subscribe := func(in *Ingestor) {
		t.Helper()
		if _, err := in.Subscribe("count", query.NewIncCount(query.CountQuery{MinFrames: 30})); err != nil {
			t.Fatal(err)
		}
	}

	const late, cut, dense = 330, 387, 500
	in, _ := session(nil)
	for f := 0; f < cut; f++ {
		if f == late {
			if !keepAll && len(in.retired) == 0 {
				t.Fatalf("nothing retired by frame %d: the late subscription backfills no ledger", late)
			}
			subscribe(in)
		}
		in.PushAt(video.FrameIndex(f), v.Detections[f])
	}
	data, err := in.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	in, oracle := session(data)
	subscribe(in)
	for f := cut; f < dense; f++ {
		in.PushAt(video.FrameIndex(f), v.Detections[f])
	}
	last := len(v.Detections) - 1
	in.PushAt(video.FrameIndex(last), v.Detections[last])
	in.Close()
	if err := in.HistoryErr(); err != nil {
		t.Fatal(err)
	}

	res := in.Result()
	out := retireOutcome{
		fingerprint: res.Fingerprint(),
		stats:       oracle.Stats(),
		virtual:     oracle.Device().Clock().Elapsed(),
		results:     in.Results(),
		count:       in.Operator("count").Results(),
		retired:     len(in.retired),
		cached:      len(oracle.State().Cache),
		staleFed:    len(in.fed),
	}
	for _, tr := range in.stream.Snapshot() {
		if _, ok := in.fed[tr.ID]; ok {
			out.staleFed--
		}
	}
	for _, tr := range in.MergedTracks().Sorted() {
		ids := []video.BBoxID{video.BBoxID(tr.ID)}
		for _, b := range tr.Boxes {
			ids = append(ids, b.ID)
		}
		out.merged = append(out.merged, ids)
	}
	return out
}

// TestRetirementMatchesNeverRetire is the differential proof that
// retiring finished tracks and evicting dead feature-cache entries
// change nothing a session computes: for every algorithm, plain and
// history mode, and 1 and 2 workers, across a checkpoint/restore cut,
// the retiring session and the never-retire, never-evict reference
// agree on the fingerprint, the oracle's Stats, the virtual clock, the
// merged tracks' box IDs, every window result (merge events and query
// deltas included) and the subscription's answer.
func TestRetirementMatchesNeverRetire(t *testing.T) {
	v, window := longHorizon(t, 2, 700)
	for _, a := range streamAlgorithms() {
		for _, history := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				mode := "plain"
				if history {
					mode = "history"
				}
				t.Run(fmt.Sprintf("%s/%s/w%d", a.name, mode, workers), func(t *testing.T) {
					if testing.Short() && (a.name != "TMerge-B" || workers == 1) {
						t.Skip("short mode runs the TMerge-B arms with 2 workers")
					}
					t.Parallel()
					got := driveRetire(t, v, window, a.mk, history, workers, false)
					ref := driveRetire(t, v, window, a.mk, history, workers, true)
					if got.retired == 0 || ref.retired != 0 {
						t.Fatalf("ledger holds %d tracks, reference %d: retirement did not run as configured", got.retired, ref.retired)
					}
					if got.cached >= ref.cached {
						t.Errorf("feature cache holds %d entries, never-evict reference %d: nothing was evicted", got.cached, ref.cached)
					}
					if got.staleFed != 0 {
						t.Errorf("%d view feed cursors outlived their retired tracks", got.staleFed)
					}
					if got.fingerprint != ref.fingerprint {
						t.Errorf("fingerprint %.16s, reference %.16s", got.fingerprint, ref.fingerprint)
					}
					if got.stats != ref.stats {
						t.Errorf("oracle stats %+v, reference %+v", got.stats, ref.stats)
					}
					if got.virtual != ref.virtual {
						t.Errorf("virtual clock %v, reference %v", got.virtual, ref.virtual)
					}
					if !reflect.DeepEqual(got.merged, ref.merged) {
						t.Error("merged tracks' box IDs differ from the reference")
					}
					if !reflect.DeepEqual(got.results, ref.results) {
						t.Error("window results differ from the reference")
					}
					if !reflect.DeepEqual(got.count, ref.count) {
						t.Error("subscription answer differs from the reference")
					}
				})
			}
		}
	}
}

// benchSession runs the 1,200-frame longhorizon session (seed 1, plain
// mode) the checkpoint benchmarks seal and restore.
func benchSession(b *testing.B) (*Ingestor, Config) {
	b.Helper()
	v, window := longHorizon(b, 1, 1200)
	cfg := longHorizonConfig(window, nil, func([]byte) error { return nil })
	in, err := New(track.Tracktor(), longHorizonOracle(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	for f, dets := range v.Detections {
		in.PushAt(video.FrameIndex(f), dets)
	}
	return in, cfg
}

// BenchmarkCheckpointSeal times one Checkpoint of a 1,200-frame
// longhorizon session and reports the checkpoint's size.
func BenchmarkCheckpointSeal(b *testing.B) {
	in, _ := benchSession(b)
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		data, err := in.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		size = len(data)
	}
	b.ReportMetric(float64(size), "bytes")
}

// BenchmarkRestore times one Restore of that session's checkpoint into
// a freshly assembled pipeline.
func BenchmarkRestore(b *testing.B) {
	in, cfg := benchSession(b)
	data, err := in.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Restore(track.Tracktor(), longHorizonOracle(), cfg, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeSegment times decoding every history segment (raw and
// compacted base) that the 1,200-frame longhorizon session, history
// mode, leaves on disk: the read path of AsOf, compaction and restore
// replays.
func BenchmarkDecodeSegment(b *testing.B) {
	v, window := longHorizon(b, 1, 1200)
	dir := b.TempDir()
	in, err := New(track.Tracktor(), longHorizonOracle(), longHorizonConfig(window, &HistoryConfig{Dir: dir}, func([]byte) error { return nil }))
	if err != nil {
		b.Fatal(err)
	}
	for f, dets := range v.Detections {
		in.PushAt(video.FrameIndex(f), dets)
	}
	if _, err := in.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "seg-*.ndjson"))
	if err != nil || len(files) == 0 {
		b.Fatalf("no segments in %s: %v", dir, err)
	}
	var segs [][]byte
	size := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			b.Fatal(err)
		}
		segs = append(segs, data)
		size += len(data)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, data := range segs {
			if _, err := histlog.DecodeSegment(data); err != nil {
				b.Fatal(err)
			}
		}
	}
}
