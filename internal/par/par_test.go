package par

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		const n = 1000
		var counts [n]atomic.Int32
		Map(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
	Map(0, 4, func(int) { t.Fatal("fn called for n=0") })
}

// TestMapPanicReachesCaller: a panic on a pool goroutine is re-raised on
// the caller, after every worker has stopped, instead of ending the
// process, and the re-raised value carries the panicking worker's
// stack.
func TestMapPanicReachesCaller(t *testing.T) {
	const n = 200
	var running, ran atomic.Int32
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		Map(n, 4, func(i int) {
			running.Add(1)
			defer running.Add(-1)
			ran.Add(1)
			if i == 7 {
				panic("boom")
			}
			time.Sleep(time.Millisecond)
		})
	}()
	select {
	case r := <-got:
		pe, ok := r.(*PanicError)
		if !ok || pe.Value != "boom" {
			t.Fatalf("recovered %v, want a *PanicError with the fn's panic value", r)
		}
		if !strings.Contains(string(pe.Stack), "TestMapPanicReachesCaller.func") {
			t.Fatalf("re-raised stack does not name the panicking fn:\n%s", pe.Stack)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Map deadlocked after a panic")
	}
	if r := running.Load(); r != 0 {
		t.Fatalf("Map returned with %d calls still running", r)
	}
	if r := ran.Load(); r == n {
		t.Fatal("indices after the panic were not skipped")
	}
}
