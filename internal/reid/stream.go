package reid

import (
	"sync"

	"github.com/tmerge/tmerge/internal/vecmath"
	"github.com/tmerge/tmerge/internal/video"
)

// TrackPairMeans computes the exact track-pair score (Definition 3.1) —
// the mean normalised distance over the full BBox cross product — for a
// batch of track pairs as ONE device submission, streaming over the cross
// products without materialising them. It is the execution path of the
// exhaustive baseline (and BL-B), whose cross products reach millions of
// BBox pairs per window.
func (o *Oracle) TrackPairMeans(pairs []*video.Pair) []float64 {
	// Plan under the lock: distinct uncached boxes across the batch.
	o.mu.Lock()
	plan := newExtractPlan(o)
	totalDistances := 0
	for _, p := range pairs {
		plan.addTrack(p.TI)
		plan.addTrack(p.TJ)
		totalDistances += p.NumBBoxPairs()
	}
	o.mu.Unlock()

	// Submit outside the lock; execute re-acquires it to commit.
	plan.execute(totalDistances)

	out := make([]float64, len(pairs))
	for k, p := range pairs {
		fi := plan.features(p.TI)
		fj := plan.features(p.TJ)
		var sum float64
		for _, a := range fi {
			for _, b := range fj {
				sum += o.model.Normalize(vecmath.Dist2(a, b))
			}
		}
		n := len(fi) * len(fj)
		if n == 0 {
			out[k] = 1
			continue
		}
		out[k] = sum / float64(n)
	}
	plan.release()
	return out
}

// SampleSpec names a subset of one track pair's BBox cross product by
// row-major indices (video.Pair.BBoxPairAt order).
type SampleSpec struct {
	Pair    *video.Pair
	Indices []int
}

// SampledMeans computes, as one device submission, the sample-mean score
// estimate (Equation 8) for each spec. It is the execution path of PS and
// PS-B.
func (o *Oracle) SampledMeans(specs []SampleSpec) []float64 {
	o.mu.Lock()
	plan := newExtractPlan(o)
	totalDistances := 0
	for _, s := range specs {
		m := s.Pair.TJ.Len()
		for _, idx := range s.Indices {
			plan.addBox(s.Pair.TI.Boxes[idx/m])
			plan.addBox(s.Pair.TJ.Boxes[idx%m])
		}
		totalDistances += len(s.Indices)
	}
	o.mu.Unlock()

	plan.execute(totalDistances)

	out := make([]float64, len(specs))
	for k, s := range specs {
		if len(s.Indices) == 0 {
			out[k] = 1
			continue
		}
		m := s.Pair.TJ.Len()
		var sum float64
		for _, idx := range s.Indices {
			a := plan.feature(s.Pair.TI.Boxes[idx/m].ID)
			b := plan.feature(s.Pair.TJ.Boxes[idx%m].ID)
			sum += o.model.Normalize(vecmath.Dist2(a, b))
		}
		out[k] = sum / float64(len(s.Indices))
	}
	plan.release()
	return out
}

// extractPlan accumulates the distinct boxes a submission must embed and
// provides feature lookup afterwards. The protocol mirrors
// DistanceBatch's three phases: callers hold o.mu while planning (addBox
// and addTrack read the shared cache, copying any hit into the plan's
// local map), release it, then call execute, which submits to the device
// lock-free and re-acquires o.mu only to commit stats and fresh
// embeddings. Stats are committed only by a successful execute, so a
// failed (panicking) submission leaves them untouched. After execute,
// feature lookups read only plan-local state and need no lock.
//
// Plans are pooled: the selection loops start one per bandit round, and
// recycling the plan (with its maps and slices) through release keeps
// the steady-state round allocation-free. A released plan must not be
// touched again.
type extractPlan struct {
	o            *Oracle
	cacheEnabled bool // snapshot of o.cacheEnabled at plan time
	boxes        []video.BBox
	hits         int64 // cache hits observed while planning
	local        map[video.BBoxID]vecmath.Vec
	seen         map[video.BBoxID]bool
	// all collects every distinct referenced box ID in encounter order —
	// cache hits included — when the oracle is a recording speculative
	// session (o.store != nil); it becomes the SubmissionRecord the
	// canonical replay re-plans against the real cache.
	all []video.BBoxID
	// trackFeat memoises per-track feature slices so the baseline's inner
	// loops avoid per-box map lookups.
	trackFeat map[*video.Track][]vecmath.Vec
	// results is the reused extraction output scratch of execute.
	results []vecmath.Vec
}

// planPool recycles extractPlans across submissions; see release.
var planPool = sync.Pool{New: func() any {
	return &extractPlan{
		local:     make(map[video.BBoxID]vecmath.Vec),
		seen:      make(map[video.BBoxID]bool),
		trackFeat: make(map[*video.Track][]vecmath.Vec),
	}
}}

// newExtractPlan starts a plan; the caller must hold o.mu.
func newExtractPlan(o *Oracle) *extractPlan {
	p := planPool.Get().(*extractPlan)
	p.o = o
	p.cacheEnabled = o.cacheEnabled
	return p
}

// release recycles the plan once every feature lookup is done. The
// caller must not hold o.mu and must not use the plan afterwards; any
// feature slices read out of it remain valid (they are owned by the
// cache, the feature store, or the fresh extraction results, never by
// the plan).
func (p *extractPlan) release() {
	p.o = nil
	p.hits = 0
	p.boxes = p.boxes[:0]
	p.all = p.all[:0]
	p.results = p.results[:0]
	clear(p.local)
	clear(p.seen)
	clear(p.trackFeat)
	planPool.Put(p)
}

// addBox plans one box; the caller must hold o.mu.
func (p *extractPlan) addBox(b video.BBox) {
	if p.seen[b.ID] {
		return
	}
	p.seen[b.ID] = true
	if p.o.store != nil {
		// Speculative session: record the reference and reuse any
		// embedding another window already computed. Value reuse here is
		// always sound (embeddings are deterministic); whether the box
		// counts as a cache hit or an extraction is decided by the
		// canonical replay, not by this speculative plan.
		p.all = append(p.all, b.ID)
		if f, ok := p.o.storedFeature(b.ID); ok {
			p.local[b.ID] = f
			return
		}
		p.boxes = append(p.boxes, b)
		return
	}
	if p.cacheEnabled {
		if f, ok := p.o.cache.get(b.ID); ok {
			p.hits++
			p.local[b.ID] = f
			return
		}
	}
	p.boxes = append(p.boxes, b)
}

func (p *extractPlan) addTrack(t *video.Track) {
	if _, done := p.trackFeat[t]; done {
		return
	}
	p.trackFeat[t] = nil // mark; filled lazily by features()
	for _, b := range t.Boxes {
		p.addBox(b)
	}
}

// execute runs the single submission embedding every planned box and
// charging nDistances distance costs. The caller must NOT hold o.mu:
// the submission blocks on modeled device latency, and execute
// re-acquires the mutex itself to commit stats and cache entries.
func (p *extractPlan) execute(nDistances int) {
	if cap(p.results) < len(p.boxes) {
		p.results = make([]vecmath.Vec, len(p.boxes))
	}
	results := p.results[:len(p.boxes)]
	run := func(i int) { results[i] = p.o.model.Embed(p.boxes[i].Obs) }
	if len(p.boxes) == 0 {
		run = nil
	}
	p.o.dev.Submit(len(p.boxes), nDistances, run)
	p.o.mu.Lock()
	defer p.o.mu.Unlock()
	if p.o.store != nil {
		// Speculative session: publish fresh embeddings to the shared
		// store and append the submission record; the real device,
		// stats, and cache are untouched until the canonical replay.
		// The record's box IDs go into the session's flat arena — one
		// growing buffer instead of a small allocation per submission
		// (records keep aliasing an outgrown arena's old backing, which
		// stays correct because records are immutable once appended).
		for i, b := range p.boxes {
			p.local[b.ID] = results[i]
			p.o.store.Put(b.ID, results[i])
		}
		start := len(p.o.arena)
		p.o.arena = append(p.o.arena, p.all...)
		boxes := p.o.arena[start:len(p.o.arena):len(p.o.arena)]
		p.o.rec = append(p.o.rec, SubmissionRecord{Boxes: boxes, NDistances: nDistances})
		p.all = p.all[:0]
		return
	}
	p.o.stats.CacheHits += p.hits
	p.o.stats.Extractions += int64(len(p.boxes))
	p.o.stats.Distances += int64(nDistances)
	for i, b := range p.boxes {
		p.local[b.ID] = results[i]
		if p.cacheEnabled {
			p.o.cache.put(b.ID, results[i])
		}
	}
}

// feature returns a planned box's embedding from plan-local state; valid
// after execute with no lock held.
func (p *extractPlan) feature(id video.BBoxID) vecmath.Vec {
	return p.local[id]
}

// features returns the per-box feature slice of a planned track.
func (p *extractPlan) features(t *video.Track) []vecmath.Vec {
	if fs := p.trackFeat[t]; fs != nil {
		return fs
	}
	fs := make([]vecmath.Vec, len(t.Boxes))
	for i, b := range t.Boxes {
		fs[i] = p.feature(b.ID)
	}
	p.trackFeat[t] = fs
	return fs
}
