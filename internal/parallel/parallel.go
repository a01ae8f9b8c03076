// Package parallel provides the small deterministic fan-out primitives the
// harness uses to spread independent trials across cores: an indexed Map
// (results land in input order regardless of completion order) and an
// error-collecting variant that cancels outstanding work on first failure.
//
// Determinism note: callers pass a function of the trial index and derive
// any randomness from per-index seeds, so parallel and sequential runs
// produce identical results.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map evaluates f(0..n-1) using the given number of workers (≤ 0 means
// GOMAXPROCS) and returns the results in index order.
func Map[T any](n, workers int, f func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	workers = clampWorkers(workers, n)
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			out[i] = f(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// MapErr is Map with error handling: the first error (by completion) stops
// new work from being claimed, outstanding calls finish, and that error is
// returned alongside the partial results (failed or unclaimed slots hold
// zero values).
func MapErr[T any](n, workers int, f func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers = clampWorkers(workers, n)
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := f(i)
			if err != nil {
				return out, err
			}
			out[i] = v
		}
		return out, nil
	}
	var next atomic.Int64
	var failed atomic.Bool
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := f(i)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
