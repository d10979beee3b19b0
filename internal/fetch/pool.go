package fetch

import (
	"context"
	"sync"
	"sync/atomic"
)

// Task is one unit of precompute work run under the worker pool. Tasks
// must honor ctx: the pool cancels it on the first error so in-flight
// work against a doomed build stops instead of running to completion.
type Task func(ctx context.Context) error

// RunTasks executes tasks on a pool of the given width. Workers claim
// tasks through one shared cursor, from the last task to the first, so
// an idle worker always takes the next unclaimed task and uneven task
// costs (one huge layer among small ones) rebalance instead of
// serializing behind a pre-assigned owner. Tasks never spawn tasks, so
// once the cursor passes the first task nothing is left. The first
// error cancels the derived context — remaining tasks are skipped and
// in-flight tasks see ctx.Done() — and is returned. A cancelled parent
// context is returned as its ctx.Err().
func RunTasks(ctx context.Context, workers int, tasks []Task) error {
	if len(tasks) == 0 {
		return ctx.Err()
	}
	workers = min(max(workers, 1), len(tasks))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	next.Store(int64(len(tasks)))
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(-1)
				if i < 0 {
					return
				}
				if err := tasks[i](ctx); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
