// Package par holds the one concurrency primitive the model and
// featurisation layers share: a bounded index-parallel map. It exists so
// forest training, grid tuning, corpus extraction and scanning, the rf,
// knn and svm batch predictors, batch featurisation and the serving
// engine's windows are one implementation, not drifting copies of the
// same worker-pool loop.
//
// Concurrency contract: Map blocks until every fn(i) returns, happens-
// before included — writes made by the workers are visible to the caller
// afterwards. Nesting Map inside fn is safe but multiplies goroutines;
// size worker counts at one level only.
package par

import (
	"runtime"
	"sync"
)

// Map runs fn(i) for every i in [0, n) on a bounded worker pool and
// returns when all calls complete. workers <= 0 selects GOMAXPROCS.
// Calls are distributed dynamically, so uneven per-index cost balances
// across workers; fn must be safe for concurrent invocation on distinct
// indices.
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
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
