// Package par provides the bounded worker pool shared by the experiment
// harness, the per-zone solvers and the solve service. It exists so every
// layer of the solve engine parallelizes the same way: index-addressed
// tasks fanned out over a fixed worker count, results written into
// pre-sized slices by the caller (never append order), and deterministic
// first-error reporting. Pool adds the long-lived variant used by the HTTP
// job server: a fixed worker set draining a bounded queue.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"sagrelay/internal/fault"
)

// callTask invokes fn(i) with panic isolation: a panicking task becomes a
// *fault.PanicError for its index (counted process-wide), failing the
// fan-out like any other task error instead of killing the process. The
// boundary matters most for the per-zone solver fan-outs, which run on
// bare goroutines far from any recover the service layer installs.
func callTask(fn func(int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fault.NewPanicError("par.foreach", v)
		}
	}()
	return fn(i)
}

// DefaultWorkers resolves a worker-count knob: values <= 0 mean
// runtime.GOMAXPROCS(0).
func DefaultWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 means GOMAXPROCS). The first error cancels the remaining
// unstarted tasks; already-running tasks finish. The returned error is the
// lowest-index error among the tasks that ran, so error reporting does not
// depend on goroutine scheduling. With workers == 1 the tasks run inline in
// index order with classic early-exit semantics and no goroutines at all.
//
// Determinism contract: fn must write its result into a caller-provided
// slot addressed by i. ForEach guarantees nothing about completion order.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachContext(context.Background(), workers, n, fn)
}

// ForEachContext is ForEach with cooperative cancellation: a cancelled ctx
// stops new tasks from starting (already-running tasks finish) and, when no
// task itself failed, the context's error is returned. Task errors keep
// priority over the cancellation error so deterministic lowest-index error
// reporting survives cancellation races. fn itself is responsible for
// observing ctx inside long-running tasks.
func ForEachContext(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = DefaultWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := callTask(fn, i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}

	var (
		next int64 = -1 // atomically incremented task cursor
		stop atomic.Bool
		errs = make([]error, n)
		wg   sync.WaitGroup
		// Workers capture this copy: capturing the reassigned ctx parameter
		// would move it to the heap on every call, inline path included.
		wctx = ctx
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n || stop.Load() || wctx.Err() != nil {
					return
				}
				if err := callTask(fn, i); err != nil {
					errs[i] = err
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
