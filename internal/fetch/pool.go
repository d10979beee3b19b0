package fetch

import (
	"context"
	"sync"
)

// Task is one unit of precompute work run under the work-stealing pool.
// Tasks must honor ctx: the pool cancels it on the first error so
// in-flight work against a doomed build stops instead of running to
// completion.
type Task func(ctx context.Context) error

// taskDeque is one worker's queue. The owner pops newest-first from the
// back (good locality for its own pre-assigned range); thieves steal
// oldest-first from the front, taking the work the owner is furthest
// from reaching. A mutex per deque is plenty here: tasks are
// coarse-grained (a whole layer materialization), so queue operations are nowhere near the critical path.
type taskDeque struct {
	mu    sync.Mutex
	tasks []Task
}

func (q *taskDeque) pop() Task {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return nil
	}
	t := q.tasks[len(q.tasks)-1]
	q.tasks = q.tasks[:len(q.tasks)-1]
	return t
}

func (q *taskDeque) steal() Task {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return nil
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	return t
}

// RunTasks executes tasks on a work-stealing pool of the given width:
// tasks are dealt round-robin onto per-worker deques, each worker
// drains its own deque and then steals from the others, so uneven task
// costs (one huge layer among small ones) rebalance instead of serializing behind the pre-assigned
// owner. The first error cancels the derived context — remaining queued
// tasks are skipped and in-flight tasks see ctx.Done() — and is
// returned. A cancelled parent context is returned as its ctx.Err().
func RunTasks(ctx context.Context, workers int, tasks []Task) error {
	if len(tasks) == 0 {
		return ctx.Err()
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	queues := make([]*taskDeque, workers)
	for i := range queues {
		queues[i] = &taskDeque{}
	}
	for i, t := range tasks {
		q := queues[i%workers]
		q.tasks = append(q.tasks, t)
	}

	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				t := queues[self].pop()
				for off := 1; t == nil && off < workers; off++ {
					t = queues[(self+off)%workers].steal()
				}
				if t == nil {
					// All deques empty. Tasks never spawn tasks, so
					// nothing can appear later: this worker is done.
					return
				}
				if err := t(ctx); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
