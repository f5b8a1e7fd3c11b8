package dataset

import (
	"path/filepath"
	"sort"
	"testing"

	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/motmetrics"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

func smallProfile(name string, t *testing.T) Profile {
	t.Helper()
	p, ok := Profiles(42)[name]
	if !ok {
		t.Fatalf("unknown profile %s", name)
	}
	p.NumVideos = 1
	return p
}

func TestProfilesExist(t *testing.T) {
	ps := Profiles(1)
	for _, name := range []string{"mot17", "kitti", "pathtrack"} {
		p, ok := ps[name]
		if !ok {
			t.Fatalf("missing profile %s", name)
		}
		if p.Template.AppearanceDim != AppearanceDim {
			t.Errorf("%s appearance dim = %d", name, p.Template.AppearanceDim)
		}
		if err := p.Template.Validate(); err != nil {
			t.Errorf("%s template invalid: %v", name, err)
		}
	}
	// PathTrack profile carries the paper's windowing constants.
	if ps["pathtrack"].WindowLen != 2000 {
		t.Error("pathtrack window length must be 2000")
	}
	if ps["pathtrack"].Template.MaxSpan != 1000 {
		t.Error("pathtrack Lmax must be 1000")
	}
	if ps["mot17"].WindowLen != 0 || ps["kitti"].WindowLen != 0 {
		t.Error("mot17/kitti are whole-video windows")
	}
}

func TestGenerateDistinctVideos(t *testing.T) {
	p := smallProfile("kitti", t)
	p.NumVideos = 2
	ds, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Videos) != 2 {
		t.Fatalf("got %d videos", len(ds.Videos))
	}
	if ds.Videos[0].GT.Len() == ds.Videos[1].GT.Len() {
		// Not impossible, but the detection streams must still differ.
		a, b := ds.Videos[0].Detections[50], ds.Videos[1].Detections[50]
		if len(a) == len(b) && len(a) > 0 && a[0].Rect == b[0].Rect {
			t.Error("videos look identical; per-video seeds not applied")
		}
	}
}

// The central calibration test: the generated corpora produce fragmented
// tracker output with a low-single-digit polyonymous rate, as the paper
// reports for its datasets (§III, §V).
func TestCalibratedPolyonymousRate(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test is slow")
	}
	for _, name := range []string{"mot17", "kitti"} {
		ds, err := smallProfile(name, t).Generate()
		if err != nil {
			t.Fatal(err)
		}
		v := ds.Videos[0]
		ts := track.Tracktor().Track(v.Detections)
		w := video.Window{Start: 0, End: video.FrameIndex(v.NumFrames - 1)}
		ps := video.BuildPairSet(w, ts.Sorted(), nil)
		if ps.Len() < 100 {
			t.Errorf("%s: only %d pairs — scene too sparse", name, ps.Len())
		}
		rate := motmetrics.PolyonymousRate(ps)
		if rate <= 0 {
			t.Errorf("%s: no polyonymous pairs — nothing to merge", name)
		}
		if rate > 0.10 {
			t.Errorf("%s: polyonymous rate %.1f%% implausibly high", name, 100*rate)
		}
	}
}

// The premise the bandit searches on: after Tracktor, a polyonymous
// pair's exact mean ReID distance sits below almost every cross-object
// pair's, so the few pairs worth merging are the ones a sampler of
// distances can find.
func TestPolyonymousPairsAreClosest(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test is slow")
	}
	p := MOT17Like(42)
	p.NumVideos = 3
	ds, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	model := reid.NewModel(42^0x5EED, AppearanceDim)
	var poly, cross []float64
	for _, v := range ds.Videos {
		ts := track.Tracktor().Track(v.Detections)
		ps := video.BuildPairSet(video.Window{Start: 0, End: video.FrameIndex(v.NumFrames - 1)}, ts.Sorted(), nil)
		truth := motmetrics.PolyonymousPairs(ps)
		oracle := reid.NewOracle(model, device.NewCPU(device.DefaultCPU))
		for i, m := range oracle.TrackPairMeans(ps.Pairs) {
			if truth[ps.Pairs[i].Key] {
				poly = append(poly, m)
			} else {
				cross = append(cross, m)
			}
		}
	}
	if len(poly) < 10 {
		t.Fatalf("%d polyonymous pairs, too few to judge", len(poly))
	}
	sort.Float64s(poly)
	sort.Float64s(cross)
	q := func(xs []float64, f float64) float64 { return xs[int(f*float64(len(xs)-1))] }
	t.Logf("%d polyonymous pair means q50 %.3f q90 %.3f; %d cross-object q01 %.3f q05 %.3f q50 %.3f",
		len(poly), q(poly, .5), q(poly, .9), len(cross), q(cross, .01), q(cross, .05), q(cross, .5))
	if q(poly, .5) >= q(cross, .05) {
		t.Errorf("median polyonymous pair mean %.3f not below the 5th-percentile cross-object mean %.3f",
			q(poly, .5), q(cross, .05))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	p := smallProfile("kitti", t)
	p.Template.NumFrames = 120 // keep the file small
	p.MinPolyPairs = 0         // a 120-frame scene cannot pass curation
	ds, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.json.gz")
	if err := Save(ds, path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != ds.Name || got.WindowLen != ds.WindowLen || len(got.Videos) != len(ds.Videos) {
		t.Fatalf("dataset header mismatch: %+v", got)
	}
	a, b := ds.Videos[0], got.Videos[0]
	if a.NumFrames != b.NumFrames {
		t.Fatal("frame counts differ")
	}
	if a.GT.Len() != b.GT.Len() {
		t.Fatalf("GT track counts differ: %d vs %d", a.GT.Len(), b.GT.Len())
	}
	for f := range a.Detections {
		if len(a.Detections[f]) != len(b.Detections[f]) {
			t.Fatalf("frame %d detections differ", f)
		}
		for i := range a.Detections[f] {
			da, db := a.Detections[f][i], b.Detections[f][i]
			if da.ID != db.ID || da.Rect != db.Rect || da.GTObject != db.GTObject {
				t.Fatalf("detection differs at frame %d index %d", f, i)
			}
			if len(da.Obs) != len(db.Obs) {
				t.Fatalf("observation length differs")
			}
			for j := range da.Obs {
				if da.Obs[j] != db.Obs[j] {
					t.Fatal("observation values differ")
				}
			}
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json.gz")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestHighwayProfile(t *testing.T) {
	p := Profiles(42)["highway"]
	if err := p.Template.Validate(); err != nil {
		t.Fatalf("highway template invalid: %v", err)
	}
	p.NumVideos = 1
	ds, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	v := ds.Videos[0]
	if v.GT.Len() == 0 {
		t.Fatal("no vehicles generated")
	}
	// Curation guarantees fragmented identities to merge.
	ts := track.Tracktor().Track(v.Detections)
	w := video.Window{Start: 0, End: video.FrameIndex(v.NumFrames - 1)}
	ps := video.BuildPairSet(w, ts.Sorted(), nil)
	if got := len(motmetrics.PolyonymousPairs(ps)); got < 3 {
		t.Errorf("curated highway scene has %d polyonymous pairs, want >= 3", got)
	}
}

// TestLongHorizonScaling pins the long-horizon profile: ScaleHorizon
// hits the requested track count (the arrival process, unthrottled, is
// concentrated around rate×frames), the result is deterministic in the
// seed, and infeasible scalings are rejected.
func TestLongHorizonScaling(t *testing.T) {
	p := smallProfile("longhorizon", t)
	const frames, tracks = 1500, 600
	if err := p.ScaleHorizon(frames, tracks); err != nil {
		t.Fatal(err)
	}
	if p.Template.NumFrames != frames {
		t.Fatalf("frames = %d, want %d", p.Template.NumFrames, frames)
	}
	ds, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	got := ds.Videos[0].GT.Len()
	if got < tracks*7/10 || got > tracks*13/10 {
		t.Errorf("scaled to %d tracks, generated %d (arrival process throttled?)", tracks, got)
	}

	p2 := smallProfile("longhorizon", t)
	if err := p2.ScaleHorizon(frames, tracks); err != nil {
		t.Fatal(err)
	}
	ds2, err := p2.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Videos[0].GT.Len() != got {
		t.Errorf("same seed generated %d then %d tracks", got, ds2.Videos[0].GT.Len())
	}

	bad := smallProfile("longhorizon", t)
	if err := bad.ScaleHorizon(-1, 0); err == nil {
		t.Error("negative frames accepted")
	}
}
