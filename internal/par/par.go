// Package par is the repo-wide deterministic fan-out engine: a
// stdlib-only worker pool that runs an indexed job set across a
// configurable number of goroutines while guaranteeing that the results
// are byte-identical for any worker count.
//
// The determinism contract has three legs:
//
//  1. Work is identified by index, never by arrival order. Each index
//     writes only its own output slot, so scheduling cannot reorder
//     results.
//  2. Randomness is derived *outside* the pool: callers either
//     pre-split their rng.Source sequentially (preserving the exact
//     draw order of the old single-goroutine loops) or key shard
//     streams by index through rng.Sequence, which is order-independent
//     by construction. Worker goroutines never share a generator.
//  3. Failure selection is positional. When several shards error or
//     panic, the one with the lowest index wins — the same one a
//     sequential loop would have hit first — so even the failure path
//     is worker-count invariant.
//
// workers == 1 bypasses the pool entirely and runs the loop on the
// caller's goroutine: that inline loop is the reference stream every
// other worker count must reproduce.
//
// The pool reports into the internal/obs registry when one is enabled
// (shard timing, queue depth, item/run counters) and costs one atomic
// load per run when observability is off.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mmtag/mmtag/internal/obs"
)

// Metric families exposed by the pool.
const (
	// MetricItems counts items executed across all runs.
	MetricItems = "par_items_total"
	// MetricRuns counts ForEach/Do invocations that used the pool.
	MetricRuns = "par_runs_total"
	// MetricShardSeconds is the per-item execution time histogram.
	MetricShardSeconds = "par_shard_seconds"
	// MetricQueueDepth gauges items not yet claimed by a worker.
	MetricQueueDepth = "par_queue_depth"
	// MetricWorkers gauges the worker count of the most recent run.
	MetricWorkers = "par_workers"
)

func init() {
	obs.RegisterBuckets(MetricShardSeconds,
		1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10)
}

// defaultWorkers holds the process-wide worker count used by ForEach,
// ForEachErr and MapErr. Zero means "not set yet"; Workers resolves that to
// runtime.NumCPU().
var defaultWorkers atomic.Int64

// Workers returns the current default worker count. Until SetWorkers is
// called it is runtime.NumCPU().
func Workers() int {
	if w := defaultWorkers.Load(); w > 0 {
		return int(w)
	}
	return runtime.NumCPU()
}

// SetWorkers sets the default worker count and returns the previous
// value. n <= 0 resets the default back to runtime.NumCPU(). The -workers
// flag of cmd/mmtag and the examples lands here.
func SetWorkers(n int) int {
	prev := Workers()
	if n <= 0 {
		defaultWorkers.Store(0)
	} else {
		defaultWorkers.Store(int64(n))
	}
	return prev
}

// shardFailure records a panic raised inside a shard.
type shardFailure struct {
	index int
	value any
}

// Error satisfies error so a recovered panic can ride the same channel
// as ForEachErr errors internally; it is re-panicked, not returned.
func (f *shardFailure) Error() string {
	return fmt.Sprintf("par: shard %d panicked: %v", f.index, f.value)
}

// ForEach runs fn(i) for every i in [0, n) across Workers() goroutines
// and returns when all calls have finished. fn must confine its writes
// to per-index state. Panics inside fn propagate to the caller; when
// several shards panic, the lowest index is re-raised.
func ForEach(n int, fn func(i int)) { Do(Workers(), n, fn) }

// Do is ForEach with an explicit worker count, for call sites (tests,
// benchmarks) that must pin parallelism regardless of the global
// default.
func Do(workers, n int, fn func(i int)) {
	err := DoErr(workers, n, func(i int) error {
		fn(i)
		return nil
	})
	if err != nil {
		// fn cannot return an error, so the only possible failure is a
		// propagated shard panic.
		panic(err)
	}
}

// ForEachErr is ForEach for fallible shards: it runs fn(i) for every i
// in [0, n) and returns the error of the lowest failing index, matching
// what a sequential loop would have returned first. After any shard
// fails, no new shards are started (in-flight ones finish).
func ForEachErr(n int, fn func(i int) error) error { return DoErr(Workers(), n, fn) }

// DoErr is ForEachErr with an explicit worker count.
//
// Determinism of the failure path: indexes are claimed in increasing
// order, and a claimed shard always runs to completion. Therefore the
// lowest failing index is always executed and recorded before the stop
// flag can starve it, and "lowest recorded failure" is exactly "lowest
// failing index" — independent of worker count and scheduling.
func DoErr(workers, n int, fn func(i int) error) error {
	return DoErrWith(workers, n, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) error { return fn(i) })
}

// ForEachErrWith is ForEachErr with per-worker state: newR runs once on
// each worker goroutine (once total on the workers == 1 inline path) and
// its result is handed to every fn call that worker executes. This is how
// sweeps give each shard its own dsp.Workspace — reused across the items
// a worker processes, never shared between goroutines. State must not
// leak results between items in any order-dependent way; determinism
// requires fn(r, i) to compute the same answer regardless of which
// worker runs it after how many prior items (scratch buffers qualify,
// accumulators do not).
func ForEachErrWith[R any](n int, newR func() R, fn func(r R, i int) error) error {
	return DoErrWith(Workers(), n, newR, fn)
}

// DoErrWith is the generic core of the pool: DoErr with per-worker state
// constructed by newR (see ForEachErrWith for the state contract).
func DoErrWith[R any](workers, n int, newR func() R, fn func(r R, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Reference stream: the plain loop every worker count must
		// reproduce. Runs on the caller's goroutine, aborts on first
		// error like the pre-pool code did.
		return forEachInline(n, newR, fn)
	}

	rec := obs.Active() // nil: metrics off
	if rec != nil {
		rec.Add(MetricRuns, 1)
		rec.Set(MetricWorkers, float64(workers))
		rec.Set(MetricQueueDepth, float64(n))
	}

	var (
		next    atomic.Int64 // next index to claim
		stopped atomic.Bool  // a shard failed; stop claiming
		mu      sync.Mutex
		failIdx = n // lowest failing index so far
		failErr error
		wg      sync.WaitGroup
	)
	record := func(i int, err error) {
		stopped.Store(true)
		mu.Lock()
		if i < failIdx {
			failIdx, failErr = i, err
		}
		mu.Unlock()
	}
	runShard := func(r R, i int) {
		defer func() {
			if v := recover(); v != nil {
				record(i, &shardFailure{index: i, value: v})
			}
		}()
		if rec != nil {
			start := time.Now()
			defer func() {
				rec.Observe(MetricShardSeconds, time.Since(start).Seconds())
				rec.Add(MetricItems, 1)
			}()
		}
		if err := fn(r, i); err != nil {
			record(i, err)
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			r := newR()
			for {
				if stopped.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if rec != nil {
					rec.Set(MetricQueueDepth, float64(n-i-1))
				}
				runShard(r, i)
			}
		}()
	}
	wg.Wait()
	if rec != nil {
		rec.Set(MetricQueueDepth, 0)
	}
	if failErr != nil {
		if f, ok := failErr.(*shardFailure); ok {
			panic(f.value)
		}
		return failErr
	}
	return nil
}

// forEachInline is the workers == 1 path: a plain sequential loop on the
// caller's goroutine with a single per-worker state instance.
func forEachInline[R any](n int, newR func() R, fn func(r R, i int) error) error {
	rec := obs.Active() // nil: metrics off
	if rec != nil {
		rec.Add(MetricRuns, 1)
		rec.Set(MetricWorkers, 1)
	}
	r := newR()
	for i := 0; i < n; i++ {
		var start time.Time
		if rec != nil {
			start = time.Now()
		}
		if err := fn(r, i); err != nil {
			return err
		}
		if rec != nil {
			rec.Observe(MetricShardSeconds, time.Since(start).Seconds())
			rec.Add(MetricItems, 1)
		}
	}
	return nil
}

// MapErr runs fn(i) for every i in [0, n), collecting results in index
// order; on failure it returns the lowest failing index's error and no
// results.
func MapErr[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapErrN[T](Workers(), n, fn)
}

// MapErrN is MapErr with an explicit worker count.
func MapErrN[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	err := DoErr(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
