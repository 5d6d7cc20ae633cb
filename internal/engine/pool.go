package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunBoundedCtx executes fn(0)…fn(n-1) on at most workers goroutines
// (workers ≤ 0 means GOMAXPROCS; 1 runs inline on the caller's): the one
// fan-out primitive, used over the independent structures of a batch.
// Once any call errors or ctx is done, no further indices are started
// (in-flight calls finish; fn is expected to observe ctx itself if its
// unit of work is long).  The first error observed is returned, else
// the context's.
func RunBoundedCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next      atomic.Int64
		failed    atomic.Bool
		cancelled atomic.Bool
		errOnce   sync.Once
		firstEr   error
		wg        sync.WaitGroup
	)
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if done != nil {
					select {
					case <-done:
						cancelled.Store(true)
						failed.Store(true)
						return
					default:
					}
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstEr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return firstEr
	}
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}
