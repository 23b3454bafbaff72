// Package pool provides a minimal bounded worker pool for running
// independent tasks concurrently — an errgroup analogue with no
// external dependency. The experiments layer uses it to run the
// Table 2 bug workloads in parallel; cmd/benchtab and cmd/reprod
// expose its width as -workers.
package pool

import (
	"context"
	"runtime"
	"sync"
)

// ForEachContext runs fn(i) for every i in [0, n), with at most
// workers invocations in flight at a time (workers <= 0 means
// GOMAXPROCS). Tasks are claimed in index order. It returns the first
// error encountered; once a task fails, unstarted tasks are skipped,
// but already-started tasks run to completion. ForEachContext itself
// returns only after every started task has finished, so results
// written to index-addressed slots are visible to the caller without
// further synchronization.
//
// The context is checked before each task is claimed, so a cancelled
// context skips every unstarted task (already-started tasks run to
// completion — tasks that should stop mid-flight must watch the
// context themselves). When cancellation cut work short and no task
// failed first, the context's error is returned.
func ForEachContext(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var (
		mu       sync.Mutex
		next     int
		firstErr error
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := ctx.Err(); err != nil {
					mu.Lock()
					if firstErr == nil && next < n {
						firstErr = err
						next = n // claim nothing more
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				if firstErr != nil || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
