package core

import (
	"errors"
	"runtime"

	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/video"
)

// Cloner is implemented by algorithms that carry per-Select mutable
// state (TMerge's diagnostics, for example) and therefore cannot share
// one instance across concurrent Select calls. The window engine clones
// such algorithms once per window when it speculates on more than one
// worker; algorithms without the method are assumed stateless across
// Select calls (every other algorithm in this package is) and are shared
// as-is.
//
// A clone must be configured identically to its parent — same seed
// included. Per-window stream independence comes from the seeding
// discipline inside Select (streams are derived fresh from the seed and
// per-pair labels on every call), not from varying the seed, which is
// what keeps Workers=1 and Workers=N bit-identical.
type Cloner interface {
	// CloneAlgorithm returns an independent instance with the same
	// configuration.
	CloneAlgorithm() Algorithm
}

// EffectiveWorkers resolves a configured worker count: 0 means
// runtime.NumCPU(), anything else is taken as-is (callers validate
// negatives away).
func EffectiveWorkers(workers int) int {
	if workers == 0 {
		return runtime.NumCPU()
	}
	return workers
}

// WindowOutcome is one window's committed result from RunWindows.
type WindowOutcome struct {
	// Selected is the window's candidate set P̂*c|K, oracle-backed or,
	// when Degraded, ranked by the spatial prior. Nil for an empty pair
	// universe.
	Selected []video.PairKey
	// Merged is the subset of Selected that passed inspection, in
	// selection order.
	Merged []video.PairKey
	// Degraded reports that the oracle's device was unavailable while
	// the window was certified.
	Degraded bool
	// Events is the window's slice of the merger's union log, nil when
	// the window caused no union. It aliases the merger's log.
	Events []MergeEvent
}

// WindowRunner is the signature of RunWindows. Production passes always
// run RunWindows; the equivalence suites substitute a sequential
// reference through it.
type WindowRunner func(algo Algorithm, K float64, oracle *reid.Oracle, merger *Merger, inspect func(*video.Pair) bool, workers, n int, pairSet func(i int) *video.PairSet, emit func(i int, w WindowOutcome))

// RunWindows is the window engine: the per-window procedure of §II —
// select the top ⌈K·|Pc|⌉ pairs of each window's universe, merge them —
// for windows 0..n-1, whose universes pairSet(i) builds. Every offline
// pass and every streaming push runs through it.
//
// Selection is speculated per window on a pool of
// EffectiveWorkers(workers) goroutines (the calling goroutine alone when
// that is 1 or n is 1) against a speculative oracle session sharing one
// feature store: no device time, stats, faults, or cache entries are
// touched (see reid.Session). Each window's recorded submissions are then
// certified against the real oracle strictly in window order through
// Oracle.ReplayBatch, which reproduces a sequential execution's cache
// hits, virtual clock, fault injections, retries, and breaker transitions
// bit for bit. A window whose certification hits an unavailable device
// degrades to the spatial prior: its completed submissions stay charged
// and later windows still certify. Any other replay error is a
// programming bug and panics.
//
// The certified pairs that pass inspect (all of them when inspect is
// nil) are merged into merger, and emit(i, outcome) reports the window
// on the calling goroutine, in window order, after window i's merges and
// before window i+1's. pairSet may run concurrently for different
// windows; empty universes select nothing and touch no oracle.
func RunWindows(algo Algorithm, K float64, oracle *reid.Oracle, merger *Merger, inspect func(*video.Pair) bool, workers, n int, pairSet func(i int) *video.PairSet, emit func(i int, w WindowOutcome)) {
	workers = min(EffectiveWorkers(workers), n)
	store := reid.NewFeatureStore()
	var logs [][]reid.SubmissionRecord // reused batch scratch for the committer
	forEachOrderedBatch(n, workers,
		func(i int) speculated {
			ps := pairSet(i)
			if ps.Len() == 0 {
				return speculated{ps: ps}
			}
			a := algo
			if c, ok := algo.(Cloner); ok && workers > 1 {
				a = c.CloneAlgorithm()
			}
			return speculateSelection(a, ps, oracle, store, K)
		},
		func(start int, batch []speculated) {
			logs = logs[:0]
			for k := range batch {
				logs = append(logs, batch[k].log)
			}
			errs := oracle.ReplayBatch(logs, store)
			for k := range batch {
				s := &batch[k]
				w := WindowOutcome{Selected: s.selected}
				if err := errs[k]; err != nil {
					var ua *device.Unavailable
					if !errors.As(err, &ua) {
						panic(err)
					}
					w.Selected, w.Degraded = SpatialSelect(s.ps, K), true
				}
				seq := merger.EventCount()
				for _, key := range w.Selected {
					if inspect == nil || inspect(s.ps.Get(key)) {
						merger.Merge(key)
						w.Merged = append(w.Merged, key)
					}
				}
				if events := merger.EventsSince(seq); len(events) > 0 {
					// Event-free windows report nil: EventsSince aliases the
					// retained log, whose nil-ness depends on whether
					// TrimEvents has dropped a sealed prefix.
					w.Events = events
				}
				emit(start+k, w)
			}
		})
}

// speculated is one window's speculative selection: the oracle-backed
// candidate set and the submission log that certifies it.
type speculated struct {
	ps       *video.PairSet
	selected []video.PairKey
	log      []reid.SubmissionRecord
}

// speculateSelection runs algo over ps against a speculative session of
// oracle backed by store. It is safe to call concurrently for different
// windows sharing one store (with one algorithm instance per call, see
// Cloner); the selection is bit-identical to a fault-free Select on the
// real oracle because it depends only on the algorithm's seed and the
// (deterministic) distances.
func speculateSelection(algo Algorithm, ps *video.PairSet, oracle *reid.Oracle, store *reid.FeatureStore, K float64) speculated {
	sess := oracle.Speculate(store)
	selected := algo.Select(ps, sess.Oracle(), K)
	return speculated{ps: ps, selected: selected, log: sess.Log()}
}

// forEachOrderedBatch runs work(i) for every i in [0, n) on a bounded
// pool of workers and delivers the results to commitBatch(start, vs) —
// vs[k] being work(start+k)'s result — in ascending index order on the
// calling goroutine. With workers <= 1 (or n == 1) every call runs
// inline on the calling goroutine and no goroutine is started.
// In-flight work — dispatched but not yet committed — is bounded by
// 2·workers, so a slow early window cannot make the executor buffer the
// whole partition.
//
// Each batch is the maximal run of consecutive indices already finished
// when the committer reaches its head: the head is awaited, then ready
// successors are drained without blocking, so a caller whose commit has
// batch economies (the window certifier's oracle replay) amortises them
// over every window that finished while earlier ones were being
// committed, without ever delaying a ready result to grow a batch.
// Batches cover every index exactly once, and vs is only valid during
// the call (it is reused).
//
// A panic in any work call cancels dispatch of further indices; results
// before the first panicking index are still committed (as a final,
// possibly shortened batch), and after every in-flight worker has
// drained the panic value is re-raised on the calling goroutine, so
// callers observe the same panic a sequential loop would have produced
// and no goroutine outlives the call.
func forEachOrderedBatch[T any](n, workers int, work func(i int) T, commitBatch func(start int, vs []T)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		buf := make([]T, 1)
		for i := 0; i < n; i++ {
			buf[0] = work(i)
			commitBatch(i, buf)
		}
		return
	}

	type slot struct {
		v        T
		panicked bool
		pval     any
	}
	done := make([]chan slot, n)
	for i := range done {
		done[i] = make(chan slot, 1)
	}
	stop := make(chan struct{})

	// Dispatcher: feeds indices in order, bounded by the in-flight
	// semaphore (released by the committer loop below). It owns jobCh.
	inFlight := make(chan struct{}, 2*workers)
	jobCh := make(chan int)
	go func() {
		defer close(jobCh)
		for i := 0; i < n; i++ {
			select {
			case inFlight <- struct{}{}:
			case <-stop:
				return
			}
			select {
			case jobCh <- i:
			case <-stop:
				return
			}
		}
	}()

	// Workers: every dispatched index is processed and its slot filled
	// (the channels are buffered, so workers never block on delivery and
	// always drain jobCh to completion — no goroutine leaks even when a
	// panic aborts the run early).
	workerDone := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { workerDone <- struct{}{} }()
			for i := range jobCh {
				var s slot
				func() {
					defer func() {
						if r := recover(); r != nil {
							s.panicked = true
							s.pval = r
						}
					}()
					s.v = work(i)
				}()
				done[i] <- s
			}
		}()
	}

	// Committer (calling goroutine): consume in ascending order, one
	// maximal ready run per commitBatch call. The dispatcher also
	// dispatches in ascending order, so if index i was never dispatched,
	// some j < i panicked and the loop re-raises it before reaching i —
	// the blocking receive below can never deadlock. The deferred
	// cancel-and-drain runs on every exit (normal, work panic, commit
	// panic): it stops the dispatcher and waits for the pool, so no
	// goroutine outlives this call, and a re-raised panic surfaces only
	// after the pool is quiet.
	defer func() {
		close(stop)
		for w := 0; w < workers; w++ {
			<-workerDone
		}
	}()
	var batch []T
	for i := 0; i < n; {
		// Await the head of the next batch.
		s := <-done[i]
		<-inFlight
		if s.panicked {
			panic(s.pval)
		}
		start := i
		batch = append(batch[:0], s.v)
		i++
		// Drain every consecutively-ready successor without blocking; a
		// panicked slot ends the run so the preceding results still
		// commit before the re-raise.
		var pval any
		panicked := false
	drain:
		for i < n {
			select {
			case s := <-done[i]:
				<-inFlight
				if s.panicked {
					panicked, pval = true, s.pval
					break drain
				}
				batch = append(batch, s.v)
				i++
			default:
				break drain
			}
		}
		commitBatch(start, batch)
		if panicked {
			panic(pval)
		}
	}
}
