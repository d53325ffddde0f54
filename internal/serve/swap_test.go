package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rf"
)

// generationBackend is a Backend whose predictions carry its generation
// id, so the test can tell which model answered each request.
type generationBackend struct {
	id float64
}

func (g *generationBackend) Classify(s *dataset.Sample) core.Prediction {
	return core.Prediction{
		Label:      fmt.Sprintf("gen-%.0f", g.id),
		Class:      fmt.Sprintf("gen-%.0f", g.id),
		Confidence: float64(s.SHA256[1]) / 255,
	}
}

// TestEngineSwapUnderLoad floods the engine from many goroutines while
// the backend is hot-swapped, asserting the zero-downtime contract: no
// request is dropped, every request is answered entirely by one
// generation, and any request issued after Swap returns — including
// requests whose key was cached under the old model — is answered by
// the new generation. Run under -race this is also the data-race gate
// for the epoch machinery.
func TestEngineSwapUnderLoad(t *testing.T) {
	oldB := &generationBackend{id: 1}
	newB := &generationBackend{id: 2}
	e := New(oldB, Options{})
	defer e.Close()

	// Prime the cache under the old model so stale-hit leaks would show.
	for id := byte(1); id <= 16; id++ {
		s := keyedSample(id)
		if p := e.Classify(&s); p.Label != "gen-1" {
			t.Fatalf("pre-swap prediction %+v", p)
		}
	}

	var swapped atomic.Bool
	var postSwapOld, badLabel atomic.Uint64
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				s := keyedSample(byte((w*iters + i) % 32)) // heavy duplication
				after := swapped.Load()
				p := e.Classify(&s)
				switch p.Label {
				case "gen-1":
					if after {
						postSwapOld.Add(1)
					}
				case "gen-2":
				default:
					badLabel.Add(1)
				}
			}
		}(w)
	}
	close(start)
	// Swap mid-flood. The flag flips only after Swap returns: requests
	// observed to start after it must be served by the new generation.
	e.Swap(newB)
	swapped.Store(true)
	wg.Wait()

	if n := postSwapOld.Load(); n != 0 {
		t.Fatalf("%d requests issued after Swap returned were answered by the old model", n)
	}
	if n := badLabel.Load(); n != 0 {
		t.Fatalf("%d requests produced neither generation's label", n)
	}
	st := e.Stats()
	if st.Swaps != 1 {
		t.Fatalf("stats.Swaps = %d, want 1", st.Swaps)
	}
	if got := st.Hits + st.Misses + st.Coalesced; got != workers*iters+16 {
		t.Fatalf("request accounting: hits+misses+coalesced = %d, want %d (none dropped)",
			got, workers*iters+16)
	}
}

// TestEngineSwapEpochsCache pins the epoch semantics precisely: an
// exact key cached under the old model must be re-classified — not
// served stale — after the swap, even though its digest is unchanged.
func TestEngineSwapEpochsCache(t *testing.T) {
	oldB := &generationBackend{id: 1}
	newB := &generationBackend{id: 2}
	e := New(oldB, Options{})
	defer e.Close()

	s := keyedSample(7)
	if p := e.Classify(&s); p.Label != "gen-1" {
		t.Fatalf("pre-swap: %+v", p)
	}
	if p := e.Classify(&s); p.Label != "gen-1" {
		t.Fatalf("pre-swap cached: %+v", p)
	}
	if st := e.Stats(); st.Hits != 1 {
		t.Fatalf("key not cached before swap: %+v", st)
	}
	e.Swap(newB)
	if p := e.Classify(&s); p.Label != "gen-2" {
		t.Fatalf("post-swap prediction %+v: stale cache entry served across the swap", p)
	}
	st := e.Stats()
	if st.Misses != 2 {
		t.Fatalf("stats = %+v, want the swapped key re-classified (2 misses)", st)
	}
	if st.CacheEntries != 1 {
		t.Fatalf("new epoch cache holds %d entries, want 1", st.CacheEntries)
	}
}

// TestEngineSwapNoCache covers the cache-disabled configuration, where
// epochs still isolate the backend and the coalescing map.
func TestEngineSwapNoCache(t *testing.T) {
	oldB := &generationBackend{id: 1}
	newB := &generationBackend{id: 2}
	e := New(oldB, Options{CacheEntries: -1})
	defer e.Close()
	s := keyedSample(3)
	if p := e.Classify(&s); p.Label != "gen-1" {
		t.Fatalf("pre-swap: %+v", p)
	}
	e.Swap(newB)
	e.Swap(oldB)
	e.Swap(newB)
	if p := e.Classify(&s); p.Label != "gen-2" {
		t.Fatalf("post-swap: %+v", p)
	}
	if st := e.Stats(); st.Swaps != 3 {
		t.Fatalf("stats.Swaps = %d, want 3", st.Swaps)
	}
}

// TestEngineSwapDifferential is the real-classifier acceptance gate:
// after swapping in a retrained model, engine output is bit-identical
// to calling the new classifier directly — on a cache primed entirely
// by the old model.
func TestEngineSwapDifferential(t *testing.T) {
	clf, samples := realClassifier(t)
	retrained, err := core.Train(samples, core.Config{
		Threshold: 0.3,
		Seed:      29,
		Forest:    rf.Params{NumTrees: 25},
	})
	if err != nil {
		t.Fatal(err)
	}

	e := New(clf, Options{})
	defer e.Close()
	before := e.ClassifyAll(samples) // primes the old epoch's cache
	for i := range samples {
		if want := clf.Classify(&samples[i]); before[i] != want {
			t.Fatalf("pre-swap sample %d: engine %+v, direct %+v", i, before[i], want)
		}
	}

	e.Swap(retrained)
	after := e.ClassifyAll(samples)
	for i := range samples {
		if want := retrained.Classify(&samples[i]); after[i] != want {
			t.Fatalf("post-swap sample %d: engine %+v, retrained direct %+v", i, after[i], want)
		}
	}
	if st := e.Stats(); st.Swaps != 1 {
		t.Fatalf("stats.Swaps = %d, want 1", st.Swaps)
	}
}
