package main

import (
	"sync"
	"time"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/motmetrics"
	"github.com/tmerge/tmerge/internal/query"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/video"
)

// tracer keeps the spans and counts of a traced run in memory. Spans
// are recorded around calls into the program's public functions and
// through the decorators below; nothing inside the program is
// instrumented. A nil *tracer records nothing, so untraced runs pass
// nil and pay one branch.
type tracer struct {
	mu     sync.Mutex
	spans  map[string][]time.Duration
	totals map[string]time.Duration
	counts map[string]float64
	// last is when the most recent span ended; sequential workloads use
	// it to time work that follows the last child span of a call.
	last time.Time
}

func newTracer() *tracer {
	return &tracer{
		spans:  make(map[string][]time.Duration),
		totals: make(map[string]time.Duration),
		counts: make(map[string]float64),
	}
}

// begin returns the start time of a span (zero when t is nil).
func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes the span named name that began at start and returns its
// duration.
func (t *tracer) end(name string, start time.Time) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(start)
	t.mu.Lock()
	t.spans[name] = append(t.spans[name], d)
	t.totals[name] += d
	t.last = now
	t.mu.Unlock()
	return d
}

// observe records a span measured elsewhere.
func (t *tracer) observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[name] = append(t.spans[name], d)
	t.totals[name] += d
	t.mu.Unlock()
}

// add increments the count named name.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) lastEnd() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last
}

// durations returns a copy of the named span's durations.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.spans[name]...)
}

// total is the summed duration of the named span.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals[name]
}

func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// quantiles reports the named span's p-quantiles in the given unit.
func (t *tracer) quantiles(name string, unit time.Duration, qs ...float64) []float64 {
	ds := t.durations(name)
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(xs, q)
	}
	return out
}

// recallLog accumulates per-window REC(P̂*c|K) over windows with at
// least one ground-truth polyonymous pair, as core.TryRunPipeline
// defines REC. Streaming sessions carry no truth, so the benchmark
// derives it from the pair universe each Select sees.
type recallLog struct {
	mu  sync.Mutex
	sum float64
	n   int
}

func (r *recallLog) add(ps *video.PairSet, selected []video.PairKey) {
	truth := motmetrics.PolyonymousPairs(ps)
	if len(truth) == 0 {
		return
	}
	rec := video.Recall(selected, truth)
	r.mu.Lock()
	r.sum += rec
	r.n++
	r.mu.Unlock()
}

// rec returns the mean recall, 1 when no window carried truth (the
// pipeline's convention).
func (r *recallLog) rec() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return 1
	}
	return r.sum / float64(r.n)
}

// tracedAlgo decorates a core.Algorithm: it times each Select as a
// core.select span, counts pair universes, and optionally logs recall.
// It keeps the Cloner contract so the parallel executor still gets one
// instance per concurrent window.
type tracedAlgo struct {
	inner  core.Algorithm
	tr     *tracer
	recall *recallLog
}

// wrapAlgo returns algo decorated for tr and recall, or algo itself
// when both are nil.
func wrapAlgo(algo core.Algorithm, tr *tracer, recall *recallLog) core.Algorithm {
	if tr == nil && recall == nil {
		return algo
	}
	return &tracedAlgo{inner: algo, tr: tr, recall: recall}
}

func (a *tracedAlgo) Name() string { return a.inner.Name() }

func (a *tracedAlgo) Select(ps *video.PairSet, oracle *reid.Oracle, K float64) []video.PairKey {
	start := a.tr.begin()
	sel := a.inner.Select(ps, oracle, K)
	a.tr.end("core.select", start)
	a.tr.add("core.windows", 1)
	a.tr.add("core.pairs", float64(len(ps.Pairs)))
	if a.recall != nil {
		a.recall.add(ps, sel)
	}
	return sel
}

func (a *tracedAlgo) CloneAlgorithm() core.Algorithm {
	if c, ok := a.inner.(core.Cloner); ok {
		return &tracedAlgo{inner: c.CloneAlgorithm(), tr: a.tr, recall: a.recall}
	}
	return a
}

// tracedDevice decorates a device.Device, timing each submission.
type tracedDevice struct {
	inner device.Device
	tr    *tracer
}

func wrapDevice(d device.Device, tr *tracer) device.Device {
	if tr == nil {
		return d
	}
	return &tracedDevice{inner: d, tr: tr}
}

func (d *tracedDevice) Name() string { return d.inner.Name() }

func (d *tracedDevice) Submit(nExtract, nDistance int, run func(i int)) {
	start := d.tr.begin()
	d.inner.Submit(nExtract, nDistance, run)
	d.tr.end("device.submit", start)
}

func (d *tracedDevice) Clock() *device.Clock { return d.inner.Clock() }
func (d *tracedDevice) Submissions() int64   { return d.inner.Submissions() }

// tracedQuery decorates a query.Incremental, timing each Apply and
// counting the deltas it emits.
type tracedQuery struct {
	query.Incremental
	tr *tracer
}

func wrapQuery(op query.Incremental, tr *tracer) query.Incremental {
	if tr == nil {
		return op
	}
	return &tracedQuery{Incremental: op, tr: tr}
}

func (q *tracedQuery) Apply(v query.TrackView, changed, removed []video.TrackID) []query.Delta {
	start := q.tr.begin()
	ds := q.Incremental.Apply(v, changed, removed)
	q.tr.end("query.apply", start)
	q.tr.add("query.deltas", float64(len(ds)))
	return ds
}

// layerMetrics fills the span-derived per-layer metrics every workload
// shares: selection, device and query timings.
func (t *tracer) layerMetrics(m map[string]float64) {
	sel := t.quantiles("core.select", time.Millisecond, 0.5, 0.99)
	m["core.select_ms.p50"], m["core.select_ms.p99"] = sel[0], sel[1]
	m["core.select_busy_s"] = t.total("core.select").Seconds()
	if w := t.count("core.windows"); w > 0 {
		m["core.pairs_per_window"] = t.count("core.pairs") / w
	}
	m["device.submit_busy_s"] = t.total("device.submit").Seconds()
	qa := t.quantiles("query.apply", time.Microsecond, 0.5, 0.99)
	m["query.apply_us.p50"], m["query.apply_us.p99"] = qa[0], qa[1]
	m["query.deltas"] = t.count("query.deltas")
}

// oracleMetrics fills the reid.* and device.* counters from oracle
// work deltas and device totals.
func oracleMetrics(m map[string]float64, st reid.Stats, submissions int64, virtual time.Duration) {
	m["reid.extractions"] = float64(st.Extractions)
	m["reid.cache_hits"] = float64(st.CacheHits)
	if n := st.Extractions + st.CacheHits; n > 0 {
		m["reid.hit_ratio"] = float64(st.CacheHits) / float64(n)
	}
	m["reid.distances"] = float64(st.Distances)
	m["device.submissions"] = float64(submissions)
	m["device.virtual_s"] = virtual.Seconds()
}
