package reid

import (
	"fmt"
	"sync"

	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/vecmath"
	"github.com/tmerge/tmerge/internal/video"
)

// Stats counts the oracle's work, the currency every algorithm in the
// paper is measured in.
type Stats struct {
	Distances   int64 // BBox pair distances computed
	Extractions int64 // MLP forward passes actually executed
	CacheHits   int64 // extractions avoided by the feature cache
}

// Oracle computes normalised BBox pair distances on a Device, caching
// embeddings by BBox identity (the paper's feature-reuse optimisation:
// "if either of the BBoxes' feature vectors has been extracted in previous
// iterations it can be reused").
//
// Oracle is safe for concurrent use. Every distance call runs in three
// phases: plan under the mutex (snapshot cached features, collect the
// uncached boxes), submit to the device with the mutex released (device
// submission blocks on modeled latency, so holding the lock across it
// would serialise every concurrent caller), then commit counters and
// fresh embeddings back under the mutex. Concurrent callers racing on
// the same uncached box may therefore each extract it once — the usual
// cache-stampede trade — but single-threaded accounting is exact. If a
// submission fails mid-call — a fallible device's Submit panics with
// *device.Unavailable — the counters and the cache are left exactly as
// they were before the call, so retried and abandoned submissions never
// double-count work.
type Oracle struct {
	model *Model
	dev   device.Device
	// mu guards cache, cacheEnabled, stats, and rec across every
	// execution path (DistanceBatch, TrackPairMeans, SampledMeans,
	// SequenceDistance).
	mu    sync.Mutex
	cache featureCache
	// spare is the second buffer RetainFeatures rebuilds the cache into,
	// kept (empty) between calls so eviction does not allocate.
	spare featureCache
	// Caching can be disabled for the ablation benchmarks.
	cacheEnabled bool
	stats        Stats
	// store, when non-nil, marks a speculative session oracle (see
	// Speculate): feature lookups and commits go through the shared
	// FeatureStore instead of cache, and every submission plan is
	// appended to rec instead of charging the real device. arena is the
	// flat backing for the records' box-ID slices — one growing buffer
	// per session instead of one small allocation per submission.
	// parent, set on sessions of a caching oracle, is the oracle whose
	// canonical cache a store miss reads through to.
	store  *FeatureStore
	rec    []SubmissionRecord
	arena  []video.BBoxID
	parent *Oracle
}

// NewOracle returns an oracle executing on dev with caching enabled.
func NewOracle(model *Model, dev device.Device) *Oracle {
	return &Oracle{
		model:        model,
		dev:          dev,
		cacheEnabled: true,
	}
}

// SetCacheEnabled toggles the feature cache (ablation).
func (o *Oracle) SetCacheEnabled(on bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cacheEnabled = on
}

// Model returns the underlying embedder.
func (o *Oracle) Model() *Model { return o.model }

// Device returns the execution device.
func (o *Oracle) Device() device.Device { return o.dev }

// Stats returns a snapshot of the oracle's work counters.
func (o *Oracle) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// ResetStats zeroes the counters (the cache is retained).
func (o *Oracle) ResetStats() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.stats = Stats{}
}

// ResetCache clears the feature cache (its backing arrays are retained
// for reuse).
func (o *Oracle) ResetCache() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cache.reset()
}

// RetainFeatures evicts every cached embedding whose box ID is not in
// keep. The streaming ingestor calls it after each committed window
// batch with the boxes a future pair can still name, so the cache (and
// the checkpoint carrying it) stays bounded by the live window instead
// of growing with the stream. Evicting an entry no later call asks for
// changes no counter: Stats and every distance are as if the cache had
// kept it. The cost is proportional to len(keep) plus the cache's table
// size; IDs in keep that are not cached are ignored.
func (o *Oracle) RetainFeatures(keep []video.BBoxID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.spare.reserve(min(len(keep), o.cache.len()))
	for _, id := range keep {
		if v, ok := o.cache.get(id); ok {
			o.spare.put(id, v)
		}
	}
	o.cache, o.spare = o.spare, o.cache
	o.spare.reset()
}

// CachedFeature is one serialised feature-cache entry.
type CachedFeature struct {
	ID  video.BBoxID
	Vec []float64
}

// OracleState is the serialisable form of an Oracle's mutable state: the
// work counters and the feature cache, entries sorted by BBox ID for a
// deterministic encoding. Restoring it makes a fresh oracle's cache-hit /
// extraction accounting continue exactly where an interrupted session's
// left off. The cache is not JSON: the session checkpoint carries it in
// its binary bulk section (internal/ingest).
type OracleState struct {
	Stats        Stats           `json:"stats"`
	CacheEnabled bool            `json:"cache_enabled"`
	Cache        []CachedFeature `json:"-"`
}

// State snapshots the oracle's counters and feature cache.
func (o *Oracle) State() OracleState {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := OracleState{Stats: o.stats, CacheEnabled: o.cacheEnabled}
	ids := o.cache.sortedIDs(make([]video.BBoxID, 0, o.cache.len()))
	for _, id := range ids {
		v, _ := o.cache.get(id)
		st.Cache = append(st.Cache, CachedFeature{ID: id, Vec: append([]float64(nil), v...)})
	}
	return st
}

// RestoreState overwrites the oracle's counters and cache with a snapshot
// taken by State. Cached vectors must match the model's output
// dimensionality; a mismatched snapshot is rejected before any mutation.
func (o *Oracle) RestoreState(st OracleState) error {
	for _, cf := range st.Cache {
		if len(cf.Vec) != o.model.OutDim {
			return fmt.Errorf("reid: cached feature %d has dim %d, model outputs %d", cf.ID, len(cf.Vec), o.model.OutDim)
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.stats = st.Stats
	o.cacheEnabled = st.CacheEnabled
	o.cache.reset()
	o.cache.reserve(len(st.Cache))
	for _, cf := range st.Cache {
		o.cache.put(cf.ID, vecmath.Vec(append([]float64(nil), cf.Vec...)))
	}
	return nil
}

// Distance computes the normalised distance d~(b1, b2) in [0, 1] as a
// single device submission.
func (o *Oracle) Distance(b1, b2 video.BBox) float64 {
	return o.DistanceBatch([][2]video.BBox{{b1, b2}})[0]
}

// DistanceBatch computes normalised distances for a batch of BBox pairs as
// one device submission — the unit of work the "-B" algorithm variants
// amortise launch costs over. Uncached embeddings across the whole batch
// are extracted jointly.
func (o *Oracle) DistanceBatch(pairs [][2]video.BBox) []float64 {
	return o.DistanceBatchInto(nil, pairs)
}

// DistanceBatchInto is DistanceBatch appending into dst — the selection
// loops call the oracle once per bandit round, and reusing the output
// buffer keeps the round allocation-free. dst may be nil.
func (o *Oracle) DistanceBatchInto(dst []float64, pairs [][2]video.BBox) []float64 {
	// Plan under the lock (distinct uncached boxes across the batch),
	// submit unlocked, commit under the lock — the three-phase protocol
	// shared with every other execution path via extractPlan. Cache hits
	// are counted once per distinct box per submission and committed
	// only after the submission succeeds, so a failed (panicking)
	// submission leaves the stats untouched.
	o.mu.Lock()
	plan := newExtractPlan(o)
	for _, p := range pairs {
		plan.addBox(p[0])
		plan.addBox(p[1])
	}
	o.mu.Unlock()
	plan.execute(len(pairs))

	for _, p := range pairs {
		d := o.model.Distance(plan.feature(p[0].ID), plan.feature(p[1].ID))
		dst = append(dst, o.model.Normalize(d))
	}
	plan.release()
	return dst
}
