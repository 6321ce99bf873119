package experiments

import (
	"context"
	"errors"
	"sync"
)

// RunTasks executes n indexed tasks across a bounded worker pool. With
// parallel <= 1 the tasks run sequentially in index order; otherwise up to
// parallel goroutines pull indices from a channel. Each task must be
// self-contained (own its kernel, environment, and RNG), so results are
// identical regardless of worker count — only wall-clock changes. Results
// are the caller's responsibility, partitioned by index; RunTasks reports
// the lowest-index error once every started task has finished.
func RunTasks(parallel, n int, run func(i int) error) error {
	return RunTasksCtx(context.Background(), parallel, n, run)
}

// RunTasksCtx is RunTasks with cancellation: once ctx is done no further
// task starts (tasks already running finish — the kernel itself polls the
// context only at RunCtx slice boundaries). The return value prefers the
// lowest-index task error over the context error, so a sweep that failed
// *and* was canceled still reports what broke first.
func RunTasksCtx(ctx context.Context, parallel, n int, run func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			if err := run(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			return firstErr
		}
		return ctx.Err()
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		//pdos:nondeterministic-ok — each task owns a private kernel and writes only errs[i]; results merge by index, so completion order never reaches the output
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					errs[i] = ctx.Err()
					continue
				}
				errs[i] = run(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, ctx.Err()) {
			return err
		}
	}
	return ctx.Err()
}
