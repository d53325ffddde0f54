// Package serve turns the one-sample Classify path into an always-on
// classification engine shaped for the paper's Figure 1 deployment: a
// Slurm prolog submits every observed executable, and "users frequently
// execute jobs by changing the input data and not the application
// executable" (§1), so repeated submissions of identical binaries are
// the common case and concurrent submissions arrive in bursts.
//
// The engine fronts a trained classifier with an exact-hash prediction
// cache (sharded, LRU-bounded, keyed by the sample's SHA-256), so
// duplicate submissions skip featurisation and the forest entirely,
// and with in-flight coalescing, so N concurrent submissions of one new
// binary pay for one featurisation. A cache miss is classified on the
// caller's own goroutine. ClassifyAll classifies its own misses in
// fixed windows of 64 samples, one backend call per window, run in
// parallel on up to GOMAXPROCS goroutines.
//
// Predictions are bit-identical to calling Classifier.Classify directly:
// windowing changes scheduling, never arithmetic.
//
// Retrain-and-redeploy is first class: Swap atomically installs a new
// backend without stopping the engine. The cache, the coalescing map and
// the backend are grouped into one epoch that is replaced wholesale, so
// a prediction cached under the old model can never answer a request
// issued after the swap, and every request is answered entirely by one
// model — never a featurise-here, threshold-there blend.
//
// Concurrency contract: every Engine method — Classify, ClassifyAll,
// Swap, Stats, Close — is safe to call from any number of goroutines
// simultaneously; Close is idempotent and only flips Closed, so
// Classify after Close still answers. The Backend handed to New/Swap
// must itself tolerate concurrent PredictProbaBatch calls. A backend
// panic reaches the caller whose call panicked and leaves no flight
// behind.
package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/par"
)

// Backend is the narrow classifier surface the engine serves:
// batch probability prediction plus per-sample thresholding.
// *core.Classifier satisfies it.
type Backend interface {
	// PredictProbaBatch featurises samples and returns one probability
	// vector per sample, in model class order.
	PredictProbaBatch(samples []dataset.Sample) [][]float64
	// PredictFromProba applies the confidence threshold to one vector.
	PredictFromProba(proba []float64) core.Prediction
}

// Options configures an Engine. The zero value selects serving defaults.
type Options struct {
	// CacheEntries bounds the prediction cache. 0 selects the default
	// (65536 entries); negative disables caching and coalescing.
	CacheEntries int
}

// window caps how many of one ClassifyAll call's misses share a
// backend call.
const window = 64

// Stats is a snapshot of engine activity.
type Stats struct {
	// Hits counts predictions served from the exact-hash cache.
	Hits uint64
	// Misses counts predictions that went through the classifier.
	Misses uint64
	// Coalesced counts requests that piggybacked on an in-flight
	// classification of the same binary instead of featurising again.
	Coalesced uint64
	// Evicted counts cache entries dropped to respect the LRU bound,
	// summed over all epochs.
	Evicted uint64
	// Swaps counts backend hot-swaps.
	Swaps uint64
	// Batches and BatchedSamples describe the backend calls; MaxBatch
	// is the most samples one call classified.
	Batches, BatchedSamples, MaxBatch uint64
	// CacheEntries is the current epoch's prediction-cache population.
	CacheEntries int
	// Inflight is the current epoch's count of coalescing entries:
	// distinct new binaries being featurised right now.
	Inflight int
}

// flight is an in-progress classification other callers may wait on.
// pred and ok are written by the owner before done closes; ok stays
// false when the owner's backend call panicked.
type flight struct {
	done chan struct{}
	pred core.Prediction
	ok   bool
}

// miss is one sample a classify call answers through the backend (or
// waits for on another caller's flight).
type miss struct {
	i   int // index into the call's samples
	key Key
	f   *flight // nil for unkeyed samples or with caching off
}

// epoch groups the serving state that must change together on a model
// swap: the backend plus the prediction cache and coalescing map built
// over that backend's outputs. A classify call captures one epoch
// pointer and uses it throughout, so a request's cache bookkeeping can
// never cross model generations; Swap replaces the whole epoch
// atomically, instantly orphaning every prediction cached under the
// previous model.
type epoch struct {
	backend Backend
	cache   *Cache[core.Prediction] // nil when disabled

	inflightMu sync.Mutex
	inflight   map[Key]*flight
}

// claim resolves key against the cache and the coalescing map: it
// returns a cached prediction (nil flight), the flight another caller
// owns, or a new flight the caller owns and must land.
func (st *epoch) claim(key Key) (p core.Prediction, f *flight, own bool) {
	if p, ok := st.cache.Get(key); ok {
		return p, nil, false
	}
	st.inflightMu.Lock()
	defer st.inflightMu.Unlock()
	if f, ok := st.inflight[key]; ok {
		return p, f, false
	}
	// A flight may have landed since the lookup above; re-check under
	// the lock so a finished binary is never featurised again.
	if p, ok := st.cache.Get(key); ok {
		return p, nil, false
	}
	f = &flight{done: make(chan struct{})}
	st.inflight[key] = f
	return p, f, true
}

// land retires an owned flight and wakes its waiters. The caller caches
// a successful prediction first, so a lookup that no longer finds the
// flight finds the cache entry.
func (st *epoch) land(key Key, f *flight) {
	st.inflightMu.Lock()
	delete(st.inflight, key)
	st.inflightMu.Unlock()
	close(f.done)
}

// Engine is a concurrency-safe serving front for a classifier.
// Create with New, release with Close.
type Engine struct {
	opt   Options
	state atomic.Pointer[epoch]

	// swapMu is held shared for the whole span of every backend call,
	// from resolving the backend to writing its predictions, and
	// exclusively by Swap: acquiring the write lock drains every call
	// still computing on the previous backend.
	swapMu sync.RWMutex

	closed atomic.Bool

	hits, misses, coalesced       atomic.Uint64
	batches, batchedSamples, maxB atomic.Uint64
	swaps                         atomic.Uint64
	// cacheEvicted is shared by every epoch's cache, so Stats.Evicted
	// stays exact across swaps even when a retired cache takes straggler
	// inserts after its epoch ended.
	cacheEvicted atomic.Uint64
}

// newEpoch builds a fresh epoch over a backend.
func (e *Engine) newEpoch(backend Backend) *epoch {
	ep := &epoch{backend: backend, inflight: map[Key]*flight{}}
	if e.opt.CacheEntries > 0 {
		ep.cache = NewCacheCounted[core.Prediction](e.opt.CacheEntries, &e.cacheEvicted)
	}
	return ep
}

// New builds an engine over a backend; it starts no goroutine. The
// caller owns the backend; retuning it (SetThreshold on a classifier)
// while the engine serves is safe, but predictions cached before a
// threshold change keep their old labels — Swap in a fresh backend (or
// the same one) when relabelling history matters.
func New(backend Backend, opt Options) *Engine {
	if opt.CacheEntries == 0 {
		opt.CacheEntries = 65536
	}
	e := &Engine{opt: opt}
	e.state.Store(e.newEpoch(backend))
	return e
}

// Swap atomically replaces the serving backend with zero downtime:
// concurrent Classify calls keep flowing, none is dropped, and each is
// answered entirely by one backend. Swap installs a fresh epoch — new
// cache, new coalescing map — and then waits for every backend call
// still computing on the previous backend to finish, so when Swap
// returns:
//
//   - every prediction computed afterwards comes from the new backend
//     (or a newer one);
//   - no prediction cached under the previous model can ever be served
//     again — the old cache is orphaned wholesale, not invalidated
//     entry by entry.
//
// The old backend is released to the garbage collector once its last
// straggler returns. Swap is safe to call concurrently with Classify,
// Close and other Swaps.
func (e *Engine) Swap(backend Backend) {
	ns := e.newEpoch(backend)
	e.swapMu.Lock()
	e.state.Store(ns)
	e.swapMu.Unlock()
	e.swaps.Add(1)
}

// Classify predicts one sample on the caller's goroutine. A duplicate
// submission (by content digest) is served from the cache without
// allocating, or coalesced onto an in-flight classification.
func (e *Engine) Classify(s *dataset.Sample) core.Prediction {
	if st := e.state.Load(); st.cache != nil {
		if key, ok := SampleKey(s); ok {
			if p, ok := st.cache.Get(key); ok {
				e.hits.Add(1)
				return p
			}
		}
	}
	var out [1]core.Prediction
	e.classify([]dataset.Sample{*s}, out[:])
	return out[0]
}

// Lookup probes the current epoch's prediction cache by content digest
// without featurising, classifying or coalescing anything. It backs the
// hash-first protocol leg: a client that already knows its binary's
// SHA-256 asks whether a prediction exists before shipping any bytes.
// A hit counts toward Stats.Hits like any cache-served prediction; a
// miss is free — no counter moves, nothing is classified — because the
// client will follow up with the body and that request does the real
// accounting. Allocation-free on both outcomes.
//
// fhc:hotpath
func (e *Engine) Lookup(key Key) (core.Prediction, bool) {
	st := e.state.Load()
	if st.cache == nil {
		return core.Prediction{}, false
	}
	p, ok := st.cache.Get(key)
	if ok {
		e.hits.Add(1)
	}
	return p, ok
}

// ClassifyAll predicts many samples through the cache, preserving input
// order. Its misses, duplicates within the call included, are
// classified once each, in windows of 64 per backend call.
func (e *Engine) ClassifyAll(samples []dataset.Sample) []core.Prediction {
	out := make([]core.Prediction, len(samples))
	e.classify(samples, out)
	return out
}

// classify is the one miss path. Cache hits are answered directly; a
// sample whose binary is already being classified waits on that
// flight; every other sample is this call's to classify. The call
// lands the flights it owns before it waits on anyone else's, so two
// calls that each own a flight the other needs cannot deadlock.
func (e *Engine) classify(samples []dataset.Sample, out []core.Prediction) {
	st := e.state.Load()
	var mine, waits []miss
	for i := range samples {
		key, keyed := SampleKey(&samples[i])
		if !keyed || st.cache == nil {
			mine = append(mine, miss{i: i})
			continue
		}
		p, f, own := st.claim(key)
		switch {
		case f == nil:
			e.hits.Add(1)
			out[i] = p
		case own:
			mine = append(mine, miss{i, key, f})
		default:
			e.coalesced.Add(1)
			waits = append(waits, miss{i, key, f})
		}
	}
	e.misses.Add(uint64(len(mine)))
	e.run(st, samples, mine, out)
	for _, w := range waits {
		<-w.f.done
		if w.f.ok {
			out[w.i] = w.f.pred
			continue
		}
		// The owner's backend call panicked: classify again here, so
		// this caller sees the backend's own outcome.
		out[w.i] = e.Classify(&samples[w.i])
	}
}

// run classifies mine in windows and lands every flight it owns — also
// when a backend call panics, so no waiter is left on an orphaned
// flight. Bookkeeping stays within the captured epoch: if a Swap
// retired it meanwhile, the predictions land in the orphaned cache and
// are never served.
func (e *Engine) run(st *epoch, samples []dataset.Sample, mine []miss, out []core.Prediction) {
	completed := false
	defer func() {
		for _, m := range mine {
			if m.f == nil {
				continue
			}
			if completed {
				m.f.pred, m.f.ok = out[m.i], true
				st.cache.Add(m.key, out[m.i])
			}
			st.land(m.key, m.f)
		}
	}()
	par.Map((len(mine)+window-1)/window, 0, func(w int) {
		ms := mine[w*window : min((w+1)*window, len(mine))]
		batch := make([]dataset.Sample, len(ms))
		for j, m := range ms {
			batch[j] = samples[m.i]
		}
		e.predict(batch, ms, out)
	})
	completed = true
}

// predict makes one backend call over batch and writes prediction j to
// out[ms[j].i]. The backend is resolved once, under the swap lock, and
// used for probability prediction and thresholding alike, so every
// prediction comes from exactly one model generation; the predictions
// are written inside the lock span, which is what Swap's drain waits
// for.
func (e *Engine) predict(batch []dataset.Sample, ms []miss, out []core.Prediction) {
	n := uint64(len(batch))
	e.batches.Add(1)
	e.batchedSamples.Add(n)
	for {
		cur := e.maxB.Load()
		if n <= cur || e.maxB.CompareAndSwap(cur, n) {
			break
		}
	}
	e.swapMu.RLock()
	defer e.swapMu.RUnlock()
	backend := e.state.Load().backend
	probas := backend.PredictProbaBatch(batch)
	for j, m := range ms {
		out[m.i] = backend.PredictFromProba(probas[j])
	}
}

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		Hits:           e.hits.Load(),
		Misses:         e.misses.Load(),
		Coalesced:      e.coalesced.Load(),
		Evicted:        e.cacheEvicted.Load(),
		Swaps:          e.swaps.Load(),
		Batches:        e.batches.Load(),
		BatchedSamples: e.batchedSamples.Load(),
		MaxBatch:       e.maxB.Load(),
	}
	ep := e.state.Load()
	if ep.cache != nil {
		st.CacheEntries = ep.cache.Len()
	}
	ep.inflightMu.Lock()
	st.Inflight = len(ep.inflight)
	ep.inflightMu.Unlock()
	return st
}

// Closed reports whether Close has been called. A closed engine still
// answers Classify, so Closed is a readiness signal, not a liveness
// one — the HTTP layer's /readyz uses it to stop advertising the
// engine during shutdown.
func (e *Engine) Closed() bool { return e.closed.Load() }

// Close marks the engine closed. It is idempotent and safe alongside
// concurrent Classify calls, which keep being answered.
func (e *Engine) Close() { e.closed.Store(true) }
