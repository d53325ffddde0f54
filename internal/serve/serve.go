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
// caller's own goroutine; ClassifyAll is Classify per sample over a
// bounded worker pool.
//
// Predictions are bit-identical to calling Classifier.Classify directly:
// the engine only decides whether the backend runs, never what it
// computes.
//
// Retrain-and-redeploy is first class: Swap atomically installs a new
// backend without stopping the engine. The cache, the coalescing map and
// the backend are grouped into one epoch that is replaced wholesale, so
// a prediction cached under the old model can never answer a request
// issued after the swap, and every request is answered entirely by one
// model.
//
// Concurrency contract: every Engine method — Classify, ClassifyAll,
// Swap, Stats, Close — is safe to call from any number of goroutines
// simultaneously; Close is idempotent and only flips Closed, so
// Classify after Close still answers. The Backend handed to New/Swap
// must itself tolerate concurrent Classify calls. A backend panic
// reaches the caller whose call panicked and leaves no flight behind.
package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/par"
)

// Backend is the classifier surface the engine serves: one sample in,
// one thresholded prediction out. *core.Classifier satisfies it.
type Backend interface {
	Classify(s *dataset.Sample) core.Prediction
}

// Options configures an Engine. The zero value selects serving defaults.
type Options struct {
	// CacheEntries bounds the prediction cache. 0 selects the default
	// (65536 entries); negative disables caching and coalescing.
	CacheEntries int
}

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

// claim resolves a key the cache just missed: it returns the flight
// another caller owns, a new flight the caller owns and must land, or
// the prediction of a flight that landed since the lookup (nil flight).
func (st *epoch) claim(key Key) (p core.Prediction, f *flight, own bool) {
	st.inflightMu.Lock()
	defer st.inflightMu.Unlock()
	if f, ok := st.inflight[key]; ok {
		return p, f, false
	}
	// Re-check under the lock so a finished binary is never featurised
	// again.
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
	// from resolving the backend to its return, and exclusively by Swap:
	// acquiring the write lock drains every call still computing on the
	// previous backend.
	swapMu sync.RWMutex

	closed atomic.Bool

	hits, misses, coalesced atomic.Uint64
	swaps                   atomic.Uint64
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

// Classify predicts one sample on the caller's goroutine: the engine's
// one miss path. A duplicate submission (by content digest) is served
// from the cache without allocating, or waits on the in-flight
// classification of the same binary; otherwise the caller owns the
// flight, classifies, caches the prediction and releases its waiters —
// also when the backend panics, in which case each waiter classifies
// for itself and so sees the backend's own outcome.
func (e *Engine) Classify(s *dataset.Sample) core.Prediction {
	st := e.state.Load()
	key, keyed := SampleKey(s)
	if !keyed || st.cache == nil {
		e.misses.Add(1)
		return e.predict(*s)
	}
	if p, ok := st.cache.Get(key); ok {
		e.hits.Add(1)
		return p
	}
	p, f, own := st.claim(key)
	switch {
	case f == nil:
		e.hits.Add(1)
		return p
	case !own:
		e.coalesced.Add(1)
		<-f.done
		if f.ok {
			return f.pred
		}
		return e.Classify(s)
	}
	e.misses.Add(1)
	// Bookkeeping stays within the captured epoch: if a Swap retired it
	// meanwhile, the prediction lands in the orphaned cache and is never
	// served.
	defer st.land(key, f)
	f.pred = e.predict(*s)
	f.ok = true
	st.cache.Add(key, f.pred)
	return f.pred
}

// predict runs the current backend on its own copy of the sample, so
// the caller's sample never escapes through the interface call and a
// cache hit stays allocation-free. The backend is resolved and run
// under the swap lock, which is what Swap's drain waits for.
func (e *Engine) predict(s dataset.Sample) core.Prediction {
	e.swapMu.RLock()
	defer e.swapMu.RUnlock()
	return e.state.Load().backend.Classify(&s)
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

// ClassifyAll predicts many samples, preserving input order: Classify
// per sample on up to GOMAXPROCS goroutines, so duplicates within the
// call are classified once and coalesce like concurrent callers do.
func (e *Engine) ClassifyAll(samples []dataset.Sample) []core.Prediction {
	out := make([]core.Prediction, len(samples))
	par.Map(len(samples), 0, func(i int) { out[i] = e.Classify(&samples[i]) })
	return out
}

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		Hits:      e.hits.Load(),
		Misses:    e.misses.Load(),
		Coalesced: e.coalesced.Load(),
		Evicted:   e.cacheEvicted.Load(),
		Swaps:     e.swaps.Load(),
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
