package reid

import (
	"fmt"
	"sync"

	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/vecmath"
	"github.com/tmerge/tmerge/internal/video"
)

// featureShards is the shard count of FeatureStore. Box IDs are assigned
// densely by the tracker, so a simple modulus spreads adjacent windows'
// boxes across shards; 32 shards keep cross-worker contention negligible
// at every worker count the executor supports.
const featureShards = 32

// featureShard is one lock-striped slice of the store.
type featureShard struct {
	mu sync.RWMutex
	m  map[video.BBoxID]vecmath.Vec
}

// FeatureStore is a concurrency-safe embedding cache shared by the
// speculative sessions of one pipeline pass. Embeddings are pure
// functions of their BBox observations (the model's weights are fixed at
// construction), so concurrent writers racing on the same box store the
// same vector and reads are value-deterministic regardless of
// interleaving — the store trades *accounting* precision, which the
// ordered replay recomputes canonically, never *values*. The store is
// sharded so concurrent windows racing on overlapping track content do
// not serialise on one mutex.
type FeatureStore struct {
	shards [featureShards]featureShard
}

// NewFeatureStore returns an empty store. Shard maps are made on their
// first Put: a store lives for one window-engine run, often one window
// touching few shards.
func NewFeatureStore() *FeatureStore { return &FeatureStore{} }

func (s *FeatureStore) shard(id video.BBoxID) *featureShard {
	return &s.shards[uint64(id)%featureShards]
}

// Get returns the stored embedding of a box, if present.
func (s *FeatureStore) Get(id video.BBoxID) (vecmath.Vec, bool) {
	sh := s.shard(id)
	sh.mu.RLock()
	v, ok := sh.m[id]
	sh.mu.RUnlock()
	return v, ok
}

// Put stores the embedding of a box. Concurrent Puts for the same box
// are benign: every caller computes the same vector.
func (s *FeatureStore) Put(id video.BBoxID, v vecmath.Vec) {
	sh := s.shard(id)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[video.BBoxID]vecmath.Vec)
	}
	sh.m[id] = v
	sh.mu.Unlock()
}

// Len returns the number of stored embeddings.
func (s *FeatureStore) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// SubmissionRecord is one planned oracle submission captured by a
// speculative session: the distinct boxes the submission referenced (by
// identity — the embeddings live in the shared FeatureStore or the
// canonical cache), in plan-encounter order, and the number of distance
// computations it charges. Which of the boxes become feature extractions
// is NOT recorded — it depends on the cache state at execution time,
// which only the canonical replay (Oracle.ReplayBatch) knows.
type SubmissionRecord struct {
	// Boxes are the submission's distinct referenced box IDs in
	// plan-encounter order (first reference wins; later references to the
	// same BBoxID within the submission are deduplicated, exactly like
	// the real plan phase). The slice may alias the session's shared
	// record arena; treat it as immutable.
	Boxes []video.BBoxID
	// NDistances is the number of BBox pair distances the submission
	// charges to the device.
	NDistances int
}

// Session is a speculative, recording view of an Oracle. Selection
// algorithms run against Session.Oracle() exactly as they would against
// the real oracle and observe bit-identical distances (embeddings are
// deterministic), but no device time is charged, no faults can fire, and
// no shared stats or cache entries are touched: embeddings go to the
// shared FeatureStore and every would-be device submission is appended
// to the session's log. Replaying the log with Oracle.ReplayBatch
// against the real oracle, in canonical window order, then commits
// exactly the stats, cache entries, virtual time, and fault-path
// activity the sequential execution would have produced.
//
// A Session is not safe for concurrent use; create one per window (the
// FeatureStore behind them may be shared freely).
type Session struct {
	o *Oracle
}

// Speculate returns a new speculative session whose embeddings are
// shared through store. The session inherits the oracle's model and
// cache-enablement; its device is a zero-cost local executor, so the
// embedding forward passes (the real CPU work) run on the calling
// goroutine. When caching is enabled, a box missing from store is
// looked up in the oracle's canonical cache before it is embedded, so a
// fresh store does not re-embed what earlier windows already cached.
// Embeddings are pure, so the read-through changes no value; it only
// saves forward passes.
func (o *Oracle) Speculate(store *FeatureStore) *Session {
	if store == nil {
		panic("reid: Speculate with nil store")
	}
	o.mu.Lock()
	ce := o.cacheEnabled
	o.mu.Unlock()
	sess := &Oracle{
		model:        o.model,
		dev:          device.NewCPU(device.CostModel{}),
		cacheEnabled: ce,
		store:        store,
	}
	if ce {
		sess.parent = o
	}
	return &Session{o: sess}
}

// storedFeature looks a box up in a session's store, then in its
// parent's canonical cache. The caller holds the session's mutex; the
// parent's is taken here (sessions lock before parents, never the
// reverse).
func (o *Oracle) storedFeature(id video.BBoxID) (vecmath.Vec, bool) {
	if f, ok := o.store.Get(id); ok || o.parent == nil {
		return f, ok
	}
	o.parent.mu.Lock()
	defer o.parent.mu.Unlock()
	return o.parent.cache.get(id)
}

// Oracle returns the shadow oracle selection algorithms should query.
func (s *Session) Oracle() *Oracle { return s.o }

// Log returns the submissions recorded so far, in execution order.
func (s *Session) Log() []SubmissionRecord {
	s.o.mu.Lock()
	defer s.o.mu.Unlock()
	return s.o.rec
}

// replayNoop is the nil-op extraction body of replayed submissions: the
// embeddings were computed during speculation and only their cost is
// re-charged here. A package-level func avoids a closure per record.
func replayNoop(int) {}

// ReplayBatch replays the submission logs of several windows, in slice
// order, as one batched pass — the TMerge-B insight applied to
// certification: instead of paying the full replay machinery per window,
// the committer hands every certified-in-order window currently in
// flight to one call that shares the fallible-device lookup and the
// planning scratch across all their records. Record semantics are
// bit-identical to replaying each window alone in the same order: each
// record re-plans against the canonical cache under the oracle lock (so
// cache hits, feature extractions, and the device's virtual cost come
// out exactly as a sequential execution's would), submits to the real
// device unlocked (faults, retries, backoff, and breaker transitions
// fire here, in canonical submission order), and commits stats and
// cache entries on success. Extraction results are copied from store,
// never recomputed, so replay costs no model forward passes.
//
// The returned slice has one entry per log: nil for a fully replayed
// window, a *device.Unavailable for a window whose replay hit an
// unavailable device (its remaining records are abandoned, committed
// ones stay charged, and later windows' logs still replay — exactly like
// consecutive sequential windows degrading independently), or a plain
// error for a log referencing a box that neither the canonical cache
// nor the store holds.
func (o *Oracle) ReplayBatch(logs [][]SubmissionRecord, store *FeatureStore) []error {
	errs := make([]error, len(logs))
	total := 0
	for _, log := range logs {
		total += len(log)
	}
	if total == 0 {
		return errs
	}
	if store == nil {
		for i := range errs {
			errs[i] = fmt.Errorf("reid: ReplayBatch with nil store")
		}
		return errs
	}
	f := device.AsFallible(o.dev)
	// Planning scratch shared by every record of the batch.
	var ids []video.BBoxID
	var vecs []vecmath.Vec
	for li, log := range logs {
	replay:
		for ri := range log {
			rec := &log[ri]

			// Plan against the canonical cache under the lock.
			o.mu.Lock()
			cacheEnabled := o.cacheEnabled
			var hits int64
			ids = ids[:0]
			vecs = vecs[:0]
			for _, id := range rec.Boxes {
				if cacheEnabled {
					if _, ok := o.cache.get(id); ok {
						hits++
						continue
					}
				}
				v, ok := store.Get(id)
				if !ok {
					o.mu.Unlock()
					errs[li] = fmt.Errorf("reid: replay record %d references box %d absent from the feature store", ri, id)
					break replay
				}
				ids = append(ids, id)
				vecs = append(vecs, v)
			}
			o.mu.Unlock()

			// Submit outside the lock: the run function is a no-op (the
			// embeddings are precomputed), but the device still charges the
			// full modeled extraction/distance cost and the fault stack
			// still sees one submission per record.
			run := replayNoop
			if len(ids) == 0 {
				run = nil
			}
			if err := f.TrySubmit(len(ids), rec.NDistances, run); err != nil {
				errs[li] = &device.Unavailable{Err: err}
				break replay
			}

			// Commit the canonical accounting.
			o.mu.Lock()
			o.stats.CacheHits += hits
			o.stats.Extractions += int64(len(ids))
			o.stats.Distances += int64(rec.NDistances)
			if cacheEnabled {
				for i, id := range ids {
					o.cache.put(id, vecs[i])
				}
			}
			o.mu.Unlock()
		}
	}
	return errs
}
