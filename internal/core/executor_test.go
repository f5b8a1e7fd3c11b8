package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// checkNoGoroutineLeak fails the test if the goroutine count has not
// returned to (roughly) its before-value within a second — the
// executor's contract is that no worker or dispatcher goroutine outlives
// the ForEachOrdered call, panics included.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		runtime.GC() // nudge finished goroutines off the scheduler
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, now)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// forEachOrdered drives forEachOrderedBatch one commit call per index,
// the shape most of these tests assert on.
func forEachOrdered[T any](n, workers int, work func(i int) T, commit func(i int, v T)) {
	forEachOrderedBatch(n, workers, work, func(start int, vs []T) {
		for k := range vs {
			commit(start+k, vs[k])
		}
	})
}

// TestForEachOrderedCommitsInOrder: commits must arrive strictly in
// ascending index order on the calling goroutine even when work
// completes wildly out of order.
func TestForEachOrderedCommitsInOrder(t *testing.T) {
	before := runtime.NumGoroutine()
	const n, workers = 200, 4
	next := 0
	forEachOrdered(n, workers,
		func(i int) int {
			// Earlier indices sleep longer, maximising out-of-order
			// completion pressure on the reducer.
			time.Sleep(time.Duration((i*37)%5) * 100 * time.Microsecond)
			return i * i
		},
		func(i int, v int) {
			if i != next {
				t.Fatalf("commit %d arrived out of order, want %d", i, next)
			}
			if v != i*i {
				t.Fatalf("commit %d carried %d, want %d", i, v, i*i)
			}
			next++
		})
	if next != n {
		t.Fatalf("committed %d of %d", next, n)
	}
	checkNoGoroutineLeak(t, before)
}

// TestForEachOrderedBoundedInFlight: dispatched-but-uncommitted work is
// bounded by 2·workers, and concurrently-running work by workers.
func TestForEachOrderedBoundedInFlight(t *testing.T) {
	const n, workers = 120, 3
	var started, running, maxRunning atomic.Int64
	committed := 0
	forEachOrdered(n, workers,
		func(i int) struct{} {
			started.Add(1)
			r := running.Add(1)
			for {
				m := maxRunning.Load()
				if r <= m || maxRunning.CompareAndSwap(m, r) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			running.Add(-1)
			return struct{}{}
		},
		func(i int, _ struct{}) {
			// The dispatcher acquires an in-flight token before handing
			// out an index and the committer releases it just before this
			// callback, so at this point at most committed + 2·workers
			// indices can ever have started.
			if s := started.Load(); s > int64(committed+2*workers) {
				t.Fatalf("commit %d: %d work calls started, in-flight bound is committed(%d) + 2*workers(%d)",
					i, s, committed, 2*workers)
			}
			committed++
		})
	if got := maxRunning.Load(); got > workers {
		t.Errorf("max concurrent work calls = %d, want <= %d", got, workers)
	}
	if committed != n {
		t.Fatalf("committed %d of %d", committed, n)
	}
}

// TestForEachOrderedPanicInWork: a panicking work call must cancel
// dispatch, commit exactly the indices before it, drain the pool, and
// re-raise the original value on the calling goroutine.
func TestForEachOrderedPanicInWork(t *testing.T) {
	before := runtime.NumGoroutine()
	const n, workers, failAt = 1000, 4, 5
	var started atomic.Int64
	committed := 0
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic did not propagate")
			}
			if s, ok := r.(string); !ok || s != "boom-5" {
				t.Fatalf("recovered %v, want boom-5", r)
			}
		}()
		forEachOrdered(n, workers,
			func(i int) int {
				started.Add(1)
				if i == failAt {
					panic(fmt.Sprintf("boom-%d", i))
				}
				return i
			},
			func(i int, v int) { committed++ })
	}()
	if committed != failAt {
		t.Errorf("committed %d windows, want exactly the %d before the panic", committed, failAt)
	}
	// Cancellation bound: the committer stops at the failing index, so
	// dispatch can never have run ahead by more than the in-flight cap.
	if s := started.Load(); s > failAt+1+2*workers {
		t.Errorf("%d work calls started after cancellation, want <= %d", s, failAt+1+2*workers)
	}
	checkNoGoroutineLeak(t, before)
}

// TestForEachOrderedPanicInCommit: a panicking commit callback (the
// reducer detecting a corrupted state is a programming error) must also
// stop the dispatcher and drain the pool before propagating — the
// executor may never leak goroutines, whichever side fails.
func TestForEachOrderedPanicInCommit(t *testing.T) {
	before := runtime.NumGoroutine()
	const n, workers, failAt = 500, 4, 3
	func() {
		defer func() {
			if r := recover(); r != "commit-boom" {
				t.Fatalf("recovered %v, want commit-boom", r)
			}
		}()
		forEachOrdered(n, workers,
			func(i int) int { return i },
			func(i int, v int) {
				if i == failAt {
					panic("commit-boom")
				}
			})
	}()
	checkNoGoroutineLeak(t, before)
}

// TestForEachOrderedSequentialPaths: degenerate worker counts (<= 1, or
// pools larger than the job list) still commit every index in order, and
// a pool of one (workers <= 1, or a single index) runs inline on the
// calling goroutine without starting any goroutine.
func TestForEachOrderedSequentialPaths(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {3, 100}, {5, 1}, {5, 0},
	} {
		inline := tc.n <= 1 || tc.workers <= 1
		before := runtime.NumGoroutine()
		var got []int
		forEachOrdered(tc.n, tc.workers,
			func(i int) int {
				if now := runtime.NumGoroutine(); inline && now > before {
					t.Errorf("n=%d workers=%d: %d goroutines during inline work, %d before", tc.n, tc.workers, now, before)
				}
				return i
			},
			func(i int, v int) { got = append(got, v) })
		if len(got) != tc.n {
			t.Fatalf("n=%d workers=%d: committed %d", tc.n, tc.workers, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("n=%d workers=%d: commit %d carried %d", tc.n, tc.workers, i, v)
			}
		}
	}
}
