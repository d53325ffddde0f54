package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rf"
	"repro/internal/synth"
)

// fakeBackend is a recording Backend whose "probability" derives from
// the sample digest, making predictions deterministic without training.
type fakeBackend struct {
	gate    chan struct{} // when non-nil, PredictProbaBatch blocks on it
	entered chan int      // when non-nil, receives len(samples) on entry

	mu         sync.Mutex
	batchSizes []int
	samples    int
}

func (f *fakeBackend) PredictProbaBatch(samples []dataset.Sample) [][]float64 {
	if f.entered != nil {
		f.entered <- len(samples)
	}
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	f.batchSizes = append(f.batchSizes, len(samples))
	f.samples += len(samples)
	f.mu.Unlock()
	out := make([][]float64, len(samples))
	for i := range samples {
		out[i] = []float64{float64(samples[i].SHA256[1]) / 255}
	}
	return out
}

func (f *fakeBackend) PredictFromProba(proba []float64) core.Prediction {
	return core.Prediction{Label: "L", Class: "L", Confidence: proba[0]}
}

func (f *fakeBackend) classified() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.samples
}

// keyedSample builds a sample whose content digest is synthesised from
// id; distinct ids never collide on the cache key.
func keyedSample(id byte) dataset.Sample {
	s := dataset.Sample{Exe: fmt.Sprintf("exe-%d", id)}
	s.SHA256[0] = id // shard selector
	s.SHA256[1] = id // fake confidence source
	s.SHA256[2] = 1  // keep the key non-zero even for id 0
	return s
}

func TestEngineCacheHitMiss(t *testing.T) {
	fb := &fakeBackend{}
	e := New(fb, Options{BatchSize: 1})
	defer e.Close()

	a, b := keyedSample(1), keyedSample(2)
	p1 := e.Classify(&a)
	p2 := e.Classify(&a)
	e.Classify(&b)
	if p1 != p2 {
		t.Fatalf("cached prediction differs: %+v vs %+v", p1, p2)
	}
	st := e.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
	if got := fb.classified(); got != 2 {
		t.Fatalf("backend classified %d samples, want 2", got)
	}
	if st.CacheEntries != 2 {
		t.Fatalf("cache holds %d entries, want 2", st.CacheEntries)
	}
}

func TestEngineLookup(t *testing.T) {
	fb := &fakeBackend{}
	e := New(fb, Options{BatchSize: 1})
	defer e.Close()

	a := keyedSample(1)
	key, _ := SampleKey(&a)
	if _, ok := e.Lookup(key); ok {
		t.Fatal("Lookup hit before anything was classified")
	}
	if st := e.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Lookup miss moved counters: %+v", st)
	}
	want := e.Classify(&a)
	got, ok := e.Lookup(key)
	if !ok || got != want {
		t.Fatalf("Lookup after classify: ok=%v pred=%+v, want %+v", ok, got, want)
	}
	if st := e.Stats(); st.Hits != 1 {
		t.Fatalf("Lookup hit not counted: %+v", st)
	}
	if got := fb.classified(); got != 1 {
		t.Fatalf("Lookup reached the backend: %d samples classified", got)
	}
	// A swap orphans the cache: the hash-first probe must miss until the
	// new model has classified the binary.
	e.Swap(fb)
	if _, ok := e.Lookup(key); ok {
		t.Fatal("Lookup served a prediction cached under a retired model")
	}
	// Lookup is allocation-free on both outcomes.
	miss := keyedSample(9)
	missKey, _ := SampleKey(&miss)
	e.Classify(&a)
	if allocs := testing.AllocsPerRun(100, func() {
		e.Lookup(key)
		e.Lookup(missKey)
	}); allocs != 0 {
		t.Fatalf("Lookup allocates %v times per probe pair", allocs)
	}
}

func TestEngineLookupCacheDisabled(t *testing.T) {
	fb := &fakeBackend{}
	e := New(fb, Options{BatchSize: 1, CacheEntries: -1})
	defer e.Close()
	a := keyedSample(1)
	e.Classify(&a)
	key, _ := SampleKey(&a)
	if _, ok := e.Lookup(key); ok {
		t.Fatal("Lookup hit with caching disabled")
	}
}

func TestEngineLRUEviction(t *testing.T) {
	fb := &fakeBackend{}
	e := New(fb, Options{BatchSize: 1, CacheEntries: 2})
	defer e.Close()

	a, b, c := keyedSample(1), keyedSample(2), keyedSample(3)
	e.Classify(&a)
	e.Classify(&b)
	e.Classify(&c) // evicts a, the least recently used
	e.Classify(&a) // must re-classify
	st := e.Stats()
	if st.Evicted == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
	if st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 4 misses (evicted entry re-classified)", st)
	}
	if got := fb.classified(); got != 4 {
		t.Fatalf("backend classified %d samples, want 4", got)
	}
}

func TestEngineInflightCoalescing(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{})}
	e := New(fb, Options{BatchSize: 1})
	defer e.Close()

	const waiters = 8
	s := keyedSample(9)
	preds := make([]core.Prediction, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			local := s
			preds[i] = e.Classify(&local)
		}(i)
	}
	// Wait until one owner is blocked in the backend and everyone else
	// has coalesced onto its flight, then release the gate.
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Coalesced != waiters-1 {
		if time.Now().After(deadline) {
			t.Fatalf("coalescing never converged: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(fb.gate)
	wg.Wait()

	if got := fb.classified(); got != 1 {
		t.Fatalf("backend classified %d samples, want 1 (coalesced)", got)
	}
	for i := 1; i < waiters; i++ {
		if preds[i] != preds[0] {
			t.Fatalf("waiter %d got %+v, owner got %+v", i, preds[i], preds[0])
		}
	}
	st := e.Stats()
	if st.Misses != 1 || st.Coalesced != waiters-1 {
		t.Fatalf("stats = %+v, want 1 miss / %d coalesced", st, waiters-1)
	}
}

// occupyExecutor parks one classification inside the gated backend so
// the engine's only executor is busy and later requests must window up.
// It returns after the backend has entered.
func occupyExecutor(e *Engine, fb *fakeBackend, wg *sync.WaitGroup, id byte) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := keyedSample(id)
		e.Classify(&s)
	}()
	<-fb.entered
}

// waitForMisses polls until n requests have passed the cache and entered
// the batching pipeline.
func waitForMisses(t *testing.T, e *Engine, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Misses < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests entered the pipeline", e.Stats().Misses, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEngineBatchFlushOnSize(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{}), entered: make(chan int, 8)}
	// The executor is busy and the deadline far away: the second window
	// can only close by filling to BatchSize.
	e := New(fb, Options{BatchSize: 8, MaxLatency: time.Minute, Workers: 1})
	defer e.Close()

	var wg sync.WaitGroup
	occupyExecutor(e, fb, &wg, 9)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := keyedSample(byte(10 + i))
			e.Classify(&s)
		}(i)
	}
	waitForMisses(t, e, 9)
	// Give the dispatcher a beat to pull the queued 8 into its window;
	// only the size bound can release it (deadline is a minute away).
	time.Sleep(50 * time.Millisecond)
	close(fb.gate)
	wg.Wait()
	st := e.Stats()
	if st.Batches != 2 || st.MaxBatch != 8 || st.BatchedSamples != 9 {
		t.Fatalf("stats = %+v, want the occupier plus one full window of 8", st)
	}
}

func TestEngineBatchFlushOnDeadline(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{}), entered: make(chan int, 8)}
	// The executor is busy and the window can never fill: only the
	// latency bound can seal it.
	const maxLatency = 50 * time.Millisecond
	e := New(fb, Options{BatchSize: 1024, MaxLatency: maxLatency, Workers: 1})
	defer e.Close()

	var wg sync.WaitGroup
	occupyExecutor(e, fb, &wg, 19)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := keyedSample(byte(20 + i))
			e.Classify(&s)
		}(i)
	}
	waitForMisses(t, e, 4)
	// Far past the latency bound the window of 3 must be sealed; a
	// straggler arriving now must start the next window instead.
	time.Sleep(10 * maxLatency)
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := keyedSample(24)
		e.Classify(&s)
	}()
	waitForMisses(t, e, 5)
	close(fb.gate)
	wg.Wait()
	st := e.Stats()
	if st.Batches != 3 || st.MaxBatch != 3 || st.BatchedSamples != 5 {
		t.Fatalf("stats = %+v, want windows of 1 (occupier), 3 (deadline-sealed) and 1 (straggler)", st)
	}
}

func TestEngineUnkeyedSamplesBypassCache(t *testing.T) {
	fb := &fakeBackend{}
	e := New(fb, Options{BatchSize: 1})
	defer e.Close()

	s := dataset.Sample{Exe: "no-digest"} // zero SHA256
	e.Classify(&s)
	e.Classify(&s)
	if got := fb.classified(); got != 2 {
		t.Fatalf("unkeyed sample classified %d times, want 2 (no caching)", got)
	}
	if st := e.Stats(); st.Hits != 0 || st.CacheEntries != 0 {
		t.Fatalf("unkeyed sample entered the cache: %+v", st)
	}
}

func TestEngineClassifyAfterClose(t *testing.T) {
	fb := &fakeBackend{}
	e := New(fb, Options{BatchSize: 4})
	s := keyedSample(30)
	e.Classify(&s)
	e.Close()
	e.Close() // idempotent
	s2 := keyedSample(31)
	if p := e.Classify(&s2); p.Label != "L" {
		t.Fatalf("post-Close prediction = %+v", p)
	}
	if got := fb.classified(); got != 2 {
		t.Fatalf("backend classified %d samples, want 2", got)
	}
}

// --- Real-classifier tests -------------------------------------------

var (
	realOnce    sync.Once
	realClf     *core.Classifier
	realSamples []dataset.Sample
	realErr     error
)

// realClassifier trains one small classifier shared by the differential
// and race tests.
func realClassifier(t *testing.T) (*core.Classifier, []dataset.Sample) {
	t.Helper()
	realOnce.Do(func() {
		corpus, err := synth.Generate([]synth.ClassSpec{
			{Name: "Alpha", Samples: 10},
			{Name: "Beta", Samples: 10},
			{Name: "Gamma", Samples: 10},
		}, synth.Options{Seed: 7})
		if err != nil {
			realErr = err
			return
		}
		samples, err := dataset.FromCorpus(corpus, 0)
		if err != nil {
			realErr = err
			return
		}
		clf, err := core.Train(samples, core.Config{
			Threshold: 0.5,
			Seed:      11,
			Forest:    rf.Params{NumTrees: 40},
		})
		if err != nil {
			realErr = err
			return
		}
		realClf, realSamples = clf, samples
	})
	if realErr != nil {
		t.Fatal(realErr)
	}
	return realClf, realSamples
}

// TestEngineDifferential is the acceptance gate: for a stream with
// duplicates, engine output must be bit-identical — labels, closest
// classes and confidences — to sequential Classifier.Classify.
func TestEngineDifferential(t *testing.T) {
	clf, samples := realClassifier(t)
	// A stream with heavy duplication, out of class order.
	var stream []dataset.Sample
	for round := 0; round < 3; round++ {
		for i := range samples {
			stream = append(stream, samples[(i*7+round)%len(samples)])
		}
	}

	want := make([]core.Prediction, len(stream))
	for i := range stream {
		want[i] = clf.Classify(&stream[i])
	}

	for _, opt := range []Options{
		{},                              // defaults: cache + coalescing on
		{CacheEntries: -1},              // cache disabled: everything batches
		{BatchSize: 3, CacheEntries: 8}, // tiny windows, evicting cache
	} {
		e := New(clf, opt)
		got := e.ClassifyAll(stream)
		e.Close()
		for i := range stream {
			if got[i] != want[i] {
				t.Fatalf("opts %+v sample %d: engine %+v, direct %+v", opt, i, got[i], want[i])
			}
		}
	}
}

// TestEngineServesWhileRetuning drives concurrent classification against
// concurrent SetThreshold calls; run under -race
// this is the regression test for the unsynchronised-retune hazard.
func TestEngineServesWhileRetuning(t *testing.T) {
	clf, samples := realClassifier(t)
	e := New(clf, Options{BatchSize: 4, CacheEntries: -1})
	defer e.Close()

	stop := make(chan struct{})
	var tuners sync.WaitGroup
	tuners.Add(1)
	go func() {
		defer tuners.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			clf.SetThreshold(float64(i%10) / 10)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				s := samples[(w*25+i)%len(samples)]
				pred := e.Classify(&s)
				if pred.Class == "" {
					t.Error("empty prediction under concurrent retuning")
					return
				}
				_ = e.Stats()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	tuners.Wait()
	clf.SetThreshold(0.5)
}
