// Package par holds the one concurrency primitive the model and
// featurisation layers share: a bounded index-parallel map. It exists so
// forest training, grid tuning, corpus extraction and scanning, the rf,
// knn and svm batch predictors, batch featurisation, the serving
// engine's ClassifyAll and the HTTP batch route are one implementation,
// not drifting copies of the same worker-pool loop.
//
// Concurrency contract: Map blocks until every fn(i) returns, happens-
// before included — writes made by the workers are visible to the caller
// afterwards. A panic in fn never ends the process from a pool
// goroutine: Map re-raises it on the caller once every worker has
// stopped. Nesting Map inside fn is safe but multiplies goroutines;
// size worker counts at one level only.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn(i) for every i in [0, n) on a bounded worker pool and
// returns when all calls complete. workers <= 0 selects GOMAXPROCS.
// Calls are distributed dynamically, so uneven per-index cost balances
// across workers; fn must be safe for concurrent invocation on distinct
// indices. If some fn(i) panics, indices not yet started are skipped,
// and Map panics on the caller with the first panic value after every
// worker has stopped.
func Map(n, workers int, fn func(i int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		panicked atomic.Bool
		once     sync.Once
		first    any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { first = r })
					panicked.Store(true)
				}
			}()
			for !panicked.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(first)
	}
}
