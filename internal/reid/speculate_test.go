package reid

import (
	"testing"

	"github.com/tmerge/tmerge/internal/video"
	"github.com/tmerge/tmerge/internal/xrand"
)

// speculateWindow is a small window's worth of box pairs: every box of
// one half paired with every box of the other.
func speculateWindow() [][2]video.BBox {
	r := xrand.New(3)
	boxes := make([]video.BBox, 8)
	for i := range boxes {
		boxes[i] = video.BBox{ID: video.BBoxID(100 + i), Frame: video.FrameIndex(i), Obs: randomObs(r)}
	}
	var pairs [][2]video.BBox
	for _, a := range boxes[:4] {
		for _, b := range boxes[4:] {
			pairs = append(pairs, [2]video.BBox{a, b})
		}
	}
	return pairs
}

// TestSpeculateReadsThroughCanonicalCache pins the read-through: once the
// canonical cache holds a window's boxes, speculating over the same
// boxes with a fresh store embeds nothing (the store stays empty), yields
// the same distances, and certifies as pure cache hits.
func TestSpeculateReadsThroughCanonicalCache(t *testing.T) {
	pairs := speculateWindow()
	oracle := newTestOracle()
	want := oracle.DistanceBatch(pairs) // warms the canonical cache
	before := oracle.Stats()

	store := NewFeatureStore()
	sess := oracle.Speculate(store)
	got := sess.Oracle().DistanceBatch(pairs)
	if n := store.Len(); n != 0 {
		t.Fatalf("speculation over cached boxes embedded %d boxes, want 0", n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: speculative distance %v, canonical %v", i, got[i], want[i])
		}
	}

	if err := oracle.ReplayBatch([][]SubmissionRecord{sess.Log()}, store)[0]; err != nil {
		t.Fatalf("certify: %v", err)
	}
	after := oracle.Stats()
	if after.Extractions != before.Extractions || after.CacheHits != before.CacheHits+8 {
		t.Errorf("certification stats %+v after %+v, want 8 more cache hits and no extraction", after, before)
	}
}

// TestSpeculateCacheDisabledSkipsReadThrough: with the cache off there is
// no canonical cache to read, so speculation embeds into the store.
func TestSpeculateCacheDisabledSkipsReadThrough(t *testing.T) {
	pairs := speculateWindow()
	oracle := newTestOracle()
	oracle.DistanceBatch(pairs)
	oracle.SetCacheEnabled(false)

	store := NewFeatureStore()
	oracle.Speculate(store).Oracle().DistanceBatch(pairs)
	if n := store.Len(); n != 8 {
		t.Fatalf("cache-off speculation stored %d embeddings, want all 8", n)
	}
}
