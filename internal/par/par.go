// Package par holds the one concurrency primitive the model and
// featurisation layers share: a bounded index-parallel map. It exists so
// forest training, grid tuning, corpus extraction and scanning, batch
// featurisation and prediction, the serving engine's ClassifyAll and the
// HTTP batch route are one implementation, not drifting copies of the
// same worker-pool loop.
//
// Concurrency contract: Map blocks until every fn(i) returns, happens-
// before included — writes made by the workers are visible to the caller
// afterwards. A panic in fn never ends the process from a pool
// goroutine: Map re-raises it on the caller, as a *PanicError carrying
// the worker's stack, once every worker has stopped. Nesting Map inside
// fn is safe but multiplies goroutines; size worker counts at one level
// only.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the value Map re-raises when fn panics on a pool
// worker: the original panic value and the worker's stack at the
// panic, which the re-raise on the caller's goroutine would otherwise
// lose.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value followed by the worker's stack, so a
// log line that prints the recovered value names the frame that
// panicked.
func (p *PanicError) Error() string {
	return fmt.Sprintf("%v\n\npanicking worker's stack:\n%s", p.Value, p.Stack)
}

// Unwrap returns the panic value when it is an error, so errors.Is and
// errors.As still match sentinels such as http.ErrAbortHandler.
func (p *PanicError) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// Map runs fn(i) for every i in [0, n) on a bounded worker pool and
// returns when all calls complete. workers <= 0 selects GOMAXPROCS.
// Calls are distributed dynamically, so uneven per-index cost balances
// across workers; fn must be safe for concurrent invocation on distinct
// indices. If some fn(i) panics, indices not yet started are skipped,
// and Map panics on the caller with the first panic, as a *PanicError,
// after every worker has stopped. With one worker fn runs on the
// caller's goroutine, and its panic propagates unchanged.
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
					once.Do(func() {
						if _, nested := r.(*PanicError); !nested {
							r = &PanicError{Value: r, Stack: debug.Stack()}
						}
						first = r
					})
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
