package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/par"
	"repro/internal/rf"
	"repro/internal/synth"
)

// fakeBackend is a recording Backend whose confidence derives from the
// sample digest, making predictions deterministic without training.
type fakeBackend struct {
	gate chan struct{} // when non-nil, Classify blocks on it

	mu      sync.Mutex
	samples int
}

func (f *fakeBackend) Classify(s *dataset.Sample) core.Prediction {
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	f.samples++
	f.mu.Unlock()
	return core.Prediction{Label: "L", Class: "L", Confidence: float64(s.SHA256[1]) / 255}
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
	e := New(fb, Options{})
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
	e := New(fb, Options{})
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
	e := New(fb, Options{CacheEntries: -1})
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
	e := New(fb, Options{CacheEntries: 2})
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
	e := New(fb, Options{})
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

func TestEngineUnkeyedSamplesBypassCache(t *testing.T) {
	fb := &fakeBackend{}
	e := New(fb, Options{})
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
	e := New(fb, Options{})
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
// classes and confidences — to sequential Classifier.Classify. The
// stream carries duplicates within one ClassifyAll call and unkeyed
// samples.
func TestEngineDifferential(t *testing.T) {
	clf, samples := realClassifier(t)
	// A stream with heavy duplication, out of class order.
	var stream []dataset.Sample
	for round := 0; round < 5; round++ {
		for i := range samples {
			s := samples[(i*7+round)%len(samples)]
			if (i+round)%11 == 0 {
				s.SHA256 = [32]byte{} // unkeyed: never cached or coalesced
			}
			stream = append(stream, s)
		}
	}
	want := make([]core.Prediction, len(stream))
	for i := range stream {
		want[i] = clf.Classify(&stream[i])
	}

	for _, opt := range []Options{
		{},                 // defaults: cache + coalescing on
		{CacheEntries: -1}, // cache disabled: every sample is a miss
		{CacheEntries: 8},  // evicting cache
	} {
		e := New(clf, opt)
		for pass := 0; pass < 2; pass++ {
			got := e.ClassifyAll(stream)
			for i := range stream {
				if got[i] != want[i] {
					t.Fatalf("opts %+v pass %d sample %d: engine %+v, direct %+v", opt, pass, i, got[i], want[i])
				}
			}
		}
		for i := range stream {
			if got := e.Classify(&stream[i]); got != want[i] {
				t.Fatalf("opts %+v Classify sample %d: engine %+v, direct %+v", opt, i, got, want[i])
			}
		}
		if st := e.Stats(); st.Inflight != 0 {
			t.Fatalf("opts %+v: %d flights left behind", opt, st.Inflight)
		}
		e.Close()
	}
}

// TestEngineClassifyAllOpposingOrder runs two overlapping ClassifyAll
// calls over the same keys in opposite order. When their claims
// interleave, each call owns flights the other waits on; both must
// still finish, with every prediction correct.
func TestEngineClassifyAllOpposingOrder(t *testing.T) {
	const n, rounds = 192, 50
	fwd := make([]dataset.Sample, n)
	rev := make([]dataset.Sample, n)
	for i := 0; i < n; i++ {
		fwd[i] = keyedSample(byte(i))
		rev[n-1-i] = keyedSample(byte(i))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < rounds; r++ {
			fb := &fakeBackend{}
			e := New(fb, Options{})
			start := make(chan struct{})
			var wg sync.WaitGroup
			for _, stream := range [][]dataset.Sample{fwd, rev} {
				wg.Add(1)
				go func(stream []dataset.Sample) {
					defer wg.Done()
					<-start
					for i, p := range e.ClassifyAll(stream) {
						if want := float64(stream[i].SHA256[1]) / 255; p.Confidence != want {
							t.Errorf("round %d sample %d: confidence %v, want %v", r, i, p.Confidence, want)
							return
						}
					}
				}(stream)
			}
			close(start)
			wg.Wait()
			if got := fb.classified(); got != n {
				t.Errorf("round %d: backend classified %d samples, want %d (one per key)", r, got, n)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("opposing ClassifyAll calls deadlocked")
	}
}

// panicBackend panics on its first call, after letting the test park a
// coalescing waiter on the panicking call's flight, and then recovers.
type panicBackend struct {
	fakeBackend
	calls   atomic.Int32
	entered chan struct{}
	proceed chan struct{}
}

func (p *panicBackend) Classify(s *dataset.Sample) core.Prediction {
	if p.calls.Add(1) == 1 {
		close(p.entered)
		<-p.proceed
		panic("backend failure")
	}
	return p.fakeBackend.Classify(s)
}

// TestEngineBackendPanicReleasesFlight: a panicking backend call panics
// in its caller, a waiter coalesced onto that call's flight classifies
// for itself, and a later Classify of the same key returns instead of
// hanging on an orphaned flight.
func TestEngineBackendPanicReleasesFlight(t *testing.T) {
	pb := &panicBackend{entered: make(chan struct{}), proceed: make(chan struct{})}
	e := New(pb, Options{})
	defer e.Close()
	s := keyedSample(5)

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		local := s
		e.Classify(&local)
	}()
	<-pb.entered
	waited := make(chan core.Prediction, 1)
	go func() {
		local := s
		waited <- e.Classify(&local)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Coalesced != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never coalesced: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(pb.proceed)

	if r := <-panicked; r == nil {
		t.Fatal("the panicking call returned normally")
	}
	want := core.Prediction{Label: "L", Class: "L", Confidence: float64(s.SHA256[1]) / 255}
	select {
	case p := <-waited:
		if p != want {
			t.Fatalf("waiter got %+v, want %+v", p, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter hangs on the panicked call's flight")
	}
	got := make(chan core.Prediction, 1)
	go func() {
		local := s
		got <- e.Classify(&local)
	}()
	select {
	case p := <-got:
		if p != want {
			t.Fatalf("later Classify got %+v, want %+v", p, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("later Classify hangs on an orphaned flight")
	}
	if st := e.Stats(); st.Inflight != 0 {
		t.Fatalf("%d flights left behind", st.Inflight)
	}
}

// nthPanicBackend panics on its nth Classify call and classifies
// normally before and after it.
type nthPanicBackend struct {
	fakeBackend
	n     int32
	calls atomic.Int32
}

func (p *nthPanicBackend) Classify(s *dataset.Sample) core.Prediction {
	if p.calls.Add(1) == p.n {
		panic("backend failure")
	}
	return p.fakeBackend.Classify(s)
}

// TestEngineClassifyAllWindowPanic: a backend panic inside a ClassifyAll
// runs on a pool goroutine, yet panics on the caller, leaves no flight
// behind, and a later Classify of the same keys returns.
func TestEngineClassifyAllWindowPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e := New(&nthPanicBackend{n: 65}, Options{})
	defer e.Close()
	samples := make([]dataset.Sample, 192)
	for i := range samples {
		samples[i] = keyedSample(byte(i))
	}
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		e.ClassifyAll(samples)
	}()
	select {
	case r := <-panicked:
		if pe, ok := r.(*par.PanicError); !ok || pe.Value != "backend failure" {
			t.Fatalf("ClassifyAll recovered %v, want the backend's panic", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ClassifyAll hangs after a backend call panicked")
	}
	if st := e.Stats(); st.Inflight != 0 {
		t.Fatalf("%d flights left behind", st.Inflight)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range samples {
			want := float64(samples[i].SHA256[1]) / 255
			if p := e.Classify(&samples[i]); p.Confidence != want {
				t.Errorf("sample %d: confidence %v, want %v", i, p.Confidence, want)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("later Classify hangs on an orphaned flight")
	}
}

// TestEngineServesWhileRetuning drives concurrent classification against
// concurrent SetThreshold calls; run under -race
// this is the regression test for the unsynchronised-retune hazard.
func TestEngineServesWhileRetuning(t *testing.T) {
	clf, samples := realClassifier(t)
	e := New(clf, Options{CacheEntries: -1})
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
