// Package sweep is the repo's parallel batch engine: a bounded worker
// pool that executes independent jobs concurrently and delivers their
// results in strict index order, so any output assembled from the
// results is byte-identical no matter how many workers ran or how the
// scheduler interleaved them. The public noc.Sweep subsystem and the
// grid-shaped experiments (fig9, fig10, freqsweep, psdepth, ...) both
// run their cells through this engine.
package sweep

import (
	"context"
	"runtime"
	"sync"
)

// DefaultWorkers returns the default pool size: GOMAXPROCS, i.e. one
// worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Mix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit hash
// used wherever a run-level seed must be decorrelated from its
// neighbours (sweep cells, stream sources).
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Normalize clamps a worker count to [1, n]: non-positive values mean
// DefaultWorkers, and a pool never exceeds the job count.
func Normalize(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Monitor observes the pool's scheduling: JobStart fires on a worker
// goroutine immediately before job i runs, JobDone immediately after.
// Implementations must accept concurrent calls (every worker reports
// through the one monitor) and must not block — the pool waits for
// neither. The monitor sees scheduling, never results, so it cannot
// perturb the deterministic in-order emission; wall-clock bookkeeping
// (rates, ETAs, busy fractions) belongs in the monitor implementation,
// outside the deterministic engine.
type Monitor interface {
	// JobStart reports worker w picking up job i.
	JobStart(w, i int)
	// JobDone reports worker w finishing job i.
	JobDone(w, i int)
}

// Run executes jobs 0..n-1 on a bounded worker pool and hands each
// result to emit in strict index order, regardless of completion order.
// workers <= 0 selects DefaultWorkers. Job errors are not fatal to the
// pool: they are passed through to emit, which decides. If emit returns
// an error the sweep stops and Run returns that error; if ctx is
// cancelled Run returns ctx.Err(). emit is always called from the
// Run goroutine, so it needs no locking.
func Run[T any](ctx context.Context, n, workers int,
	job func(ctx context.Context, i int) (T, error),
	emit func(i int, v T, err error) error) error {
	return RunMonitored(ctx, n, workers, nil, job, emit)
}

// RunMonitored is Run with a scheduling monitor attached to the worker
// pool; a nil monitor is exactly Run.
func RunMonitored[T any](ctx context.Context, n, workers int, m Monitor,
	job func(ctx context.Context, i int) (T, error),
	emit func(i int, v T, err error) error) error {
	if n <= 0 {
		return nil
	}
	workers = Normalize(workers, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type item struct {
		i   int
		v   T
		err error
	}
	jobs := make(chan int)
	results := make(chan item, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobs {
				if m != nil {
					m.JobStart(worker, i)
				}
				v, err := job(ctx, i)
				if m != nil {
					m.JobDone(worker, i)
				}
				select {
				case results <- item{i: i, v: v, err: err}:
				case <-ctx.Done():
					return
				}
			}
		}(w)
	}
	go func() {
		defer close(jobs)
		for i := 0; i < n; i++ {
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder buffer: emit strictly in index order.
	pending := make(map[int]item, workers)
	next := 0
	for next < n {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case it, ok := <-results:
			if !ok {
				// Workers exited early; only possible after cancellation.
				return ctx.Err()
			}
			pending[it.i] = it
			for {
				cur, ready := pending[next]
				if !ready {
					break
				}
				delete(pending, next)
				if err := emit(cur.i, cur.v, cur.err); err != nil {
					return err
				}
				next++
			}
		}
	}
	return nil
}

// RunCachedMonitored is Run with a lookup layer in front of the worker
// pool and a scheduling monitor attached to it: before dispatching job i
// it consults lookup(i), and a hit short-cuts the job entirely — only
// misses enter the pool. Every lookup is made before the first job
// starts. Results still reach emit in strict index order (hits
// interleaved with computed misses at their original indices), so the
// emitted stream is byte-identical to a plain Run for any worker count
// and any hit pattern. lookup and emit are called from the
// RunCachedMonitored goroutine and need no locking. Cache hits bypass
// the pool and are never reported to the monitor; a nil monitor reports
// nothing.
func RunCachedMonitored[T any](ctx context.Context, n, workers int, m Monitor,
	lookup func(i int) (T, bool),
	job func(ctx context.Context, i int) (T, error),
	emit func(i int, v T, err error) error) error {
	if n <= 0 {
		return nil
	}
	hitVal := make([]T, n)
	hit := make([]bool, n)
	var misses []int
	for i := 0; i < n; i++ {
		if v, ok := lookup(i); ok {
			hitVal[i], hit[i] = v, true
		} else {
			misses = append(misses, i)
		}
	}

	// next is the global emission cursor; flushHits emits the run of
	// cache hits at the cursor, up to (exclusive) the given index.
	next := 0
	flushHits := func(until int) error {
		for next < until && hit[next] {
			if err := emit(next, hitVal[next], nil); err != nil {
				return err
			}
			var zero T
			hitVal[next] = zero // release the payload as soon as it is out
			next++
		}
		return nil
	}

	var mm Monitor
	if m != nil {
		// The inner pool runs over miss indices; report the global job
		// indices the caller knows.
		mm = remapMonitor{m: m, idx: misses}
	}
	err := RunMonitored(ctx, len(misses), workers, mm,
		func(ctx context.Context, mi int) (T, error) {
			return job(ctx, misses[mi])
		},
		func(mi int, v T, err error) error {
			gi := misses[mi]
			if ferr := flushHits(gi); ferr != nil {
				return ferr
			}
			if eerr := emit(gi, v, err); eerr != nil {
				return eerr
			}
			next = gi + 1
			return nil
		})
	if err != nil {
		return err
	}
	return flushHits(n)
}

// remapMonitor translates an inner pool's job indices through an index
// table before forwarding to the caller's monitor.
type remapMonitor struct {
	m   Monitor
	idx []int
}

func (r remapMonitor) JobStart(w, i int) { r.m.JobStart(w, r.idx[i]) }
func (r remapMonitor) JobDone(w, i int)  { r.m.JobDone(w, r.idx[i]) }

// Map runs f over 0..n-1 in parallel and returns the results in index
// order. The first job error aborts the map and is returned.
func Map[T any](ctx context.Context, n, workers int,
	f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Run(ctx, n, workers, func(_ context.Context, i int) (T, error) {
		return f(i)
	}, func(i int, v T, err error) error {
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
