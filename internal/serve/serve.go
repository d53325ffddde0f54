// Package serve turns the one-sample Classify path into an always-on
// classification engine shaped for the paper's Figure 1 deployment: a
// Slurm prolog submits every observed executable, and "users frequently
// execute jobs by changing the input data and not the application
// executable" (§1), so repeated submissions of identical binaries are
// the common case and concurrent submissions arrive in bursts.
//
// The engine fronts a trained classifier with two layers:
//
//   - an exact-hash prediction cache (sharded, LRU-bounded, keyed by the
//     sample's SHA-256) so duplicate submissions skip featurisation and
//     the forest entirely, with in-flight coalescing so N concurrent
//     submissions of one new binary pay for one featurisation;
//   - a micro-batcher that gathers concurrent cache misses into
//     size- and latency-bounded windows and runs them through the
//     classifier's featurizeBatch/PredictProbaBatch path, amortising
//     worker-pool start-up over the window.
//
// Predictions are bit-identical to calling Classifier.Classify directly:
// batching changes scheduling, never arithmetic.
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
// simultaneously; Close is idempotent, and Classify after Close degrades
// to direct unbatched classification rather than failing. The Backend
// handed to New/Swap must itself tolerate concurrent PredictProbaBatch
// calls (up to Options.Workers windows execute at once).
package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
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
	// BatchSize caps a micro-batch window; a window is dispatched as
	// soon as it fills. Default 64.
	BatchSize int
	// MaxLatency bounds how long a partial window lingers for
	// stragglers once every executor is busy. The dispatcher is
	// work-conserving: with an idle executor a drained queue dispatches
	// immediately, so lone requests never pay the latency bound.
	// Default 2ms.
	MaxLatency time.Duration
	// Workers bounds how many windows execute concurrently.
	// Default GOMAXPROCS.
	Workers int
	// CacheEntries bounds the prediction cache. 0 selects the default
	// (65536 entries); negative disables caching and coalescing.
	CacheEntries int
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.MaxLatency <= 0 {
		o.MaxLatency = 2 * time.Millisecond
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 65536
	}
	return o
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
	// Batches and BatchedSamples describe the dispatched windows;
	// MaxBatch is the largest window observed.
	Batches, BatchedSamples, MaxBatch uint64
	// CacheEntries is the current epoch's prediction-cache population.
	CacheEntries int
	// Inflight is the current epoch's count of coalescing entries:
	// distinct new binaries being featurised right now.
	Inflight int
}

// request is one enqueued classification.
type request struct {
	sample *dataset.Sample
	out    chan core.Prediction
}

// flight is an in-progress classification other callers may wait on.
type flight struct {
	done chan struct{}
	pred core.Prediction
}

// epoch groups the serving state that must change together on a model
// swap: the backend plus the prediction cache and coalescing map built
// over that backend's outputs. Classify captures one epoch pointer and
// uses it throughout, so a request's cache bookkeeping can never cross
// model generations; Swap replaces the whole epoch atomically, instantly
// orphaning every prediction cached under the previous model.
type epoch struct {
	backend Backend
	cache   *Cache[core.Prediction] // nil when disabled

	inflightMu sync.Mutex
	inflight   map[Key]*flight
}

// Engine is a concurrency-safe serving front for a classifier.
// Create with New, release with Close.
type Engine struct {
	opt   Options
	state atomic.Pointer[epoch]

	// swapMu is held shared for the whole execute-and-deliver span of a
	// batch and exclusively by Swap: acquiring the write lock drains
	// every in-flight window, so after Swap returns no prediction
	// computed by the previous backend is still undelivered.
	swapMu sync.RWMutex

	queue  chan *request
	sem    chan struct{} // bounds concurrent window executions
	loopWG sync.WaitGroup

	sendMu sync.RWMutex // guards queue sends against Close
	closed bool

	closeOnce sync.Once

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

// New starts an engine over a backend. The caller owns the backend;
// retuning it (SetThreshold on a classifier)
// while the engine serves is safe, but predictions cached before a
// threshold change keep their old labels — Swap in a fresh backend (or
// the same one) when relabelling history matters.
func New(backend Backend, opt Options) *Engine {
	opt = opt.withDefaults()
	e := &Engine{
		opt: opt,
		// Four windows of pending requests let callers keep enqueueing
		// while the dispatcher waits for a free executor.
		queue: make(chan *request, 4*opt.BatchSize),
		sem:   make(chan struct{}, opt.Workers),
	}
	e.state.Store(e.newEpoch(backend))
	e.loopWG.Add(1)
	go e.dispatch()
	return e
}

// Swap atomically replaces the serving backend with zero downtime:
// concurrent Classify calls keep flowing, none is dropped, and each is
// answered entirely by one backend. Swap installs a fresh epoch — new
// cache, new coalescing map — and then waits for every window still
// executing on the previous backend to deliver, so when Swap returns:
//
//   - every subsequently delivered prediction was computed by the new
//     backend (or a newer one);
//   - no prediction cached under the previous model can ever be served
//     again — the old cache is orphaned wholesale, not invalidated
//     entry by entry.
//
// The old backend is released to the garbage collector once its last
// straggler delivers. Swap is safe to call concurrently with Classify,
// Close and other Swaps.
func (e *Engine) Swap(backend Backend) {
	ns := e.newEpoch(backend)
	e.swapMu.Lock()
	e.state.Store(ns)
	e.swapMu.Unlock()
	e.swaps.Add(1)
}

// Classify predicts one sample, blocking until the prediction is
// available. Duplicate submissions (by content digest) are served from
// the cache or coalesced onto an in-flight classification; fresh
// binaries ride a micro-batch window.
func (e *Engine) Classify(s *dataset.Sample) core.Prediction {
	st := e.state.Load()
	key, keyed := SampleKey(s)
	if !keyed || st.cache == nil {
		e.misses.Add(1)
		return e.enqueue(s)
	}
	if p, ok := st.cache.Get(key); ok {
		e.hits.Add(1)
		return p
	}

	st.inflightMu.Lock()
	if f, ok := st.inflight[key]; ok {
		st.inflightMu.Unlock()
		e.coalesced.Add(1)
		<-f.done
		return f.pred
	}
	// Losing the Get race above to a completed flight is possible;
	// re-check the cache under the inflight lock so we never refeaturise
	// a binary that finished in the gap.
	if p, ok := st.cache.Get(key); ok {
		st.inflightMu.Unlock()
		e.hits.Add(1)
		return p
	}
	f := &flight{done: make(chan struct{})}
	st.inflight[key] = f
	st.inflightMu.Unlock()

	e.misses.Add(1)
	pred := e.enqueue(s)
	f.pred = pred
	// Bookkeeping stays within the captured epoch: if a Swap retired it
	// while this request was in flight, the Add lands in the orphaned
	// cache and is never served — the live epoch only ever caches
	// predictions computed by its own backend (or a newer one, equally
	// fresh by then).
	st.cache.Add(key, pred)
	st.inflightMu.Lock()
	delete(st.inflight, key)
	st.inflightMu.Unlock()
	close(f.done)
	return pred
}

// Lookup probes the current epoch's prediction cache by content digest
// without featurising, classifying or coalescing anything. It backs the
// hash-first protocol leg: a client that already knows its binary's
// SHA-256 asks whether a prediction exists before shipping any bytes.
// A hit counts toward Stats.Hits like any cache-served prediction; a
// miss is free — no counter moves, nothing is enqueued — because the
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

// ClassifyAll predicts many samples concurrently through the batching
// and caching layers, preserving input order. Concurrency is what fills
// micro-batch windows, so a stream of N samples costs N goroutines;
// chunk very large streams.
func (e *Engine) ClassifyAll(samples []dataset.Sample) []core.Prediction {
	out := make([]core.Prediction, len(samples))
	var wg sync.WaitGroup
	for i := range samples {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = e.Classify(&samples[i])
		}(i)
	}
	wg.Wait()
	return out
}

// enqueue hands one sample to the batcher and waits for its prediction.
// After Close the engine degrades to direct unbatched classification.
func (e *Engine) enqueue(s *dataset.Sample) core.Prediction {
	r := &request{sample: s, out: make(chan core.Prediction, 1)}
	e.sendMu.RLock()
	if e.closed {
		e.sendMu.RUnlock()
		return e.direct(s)
	}
	// The send must stay under sendMu: Close takes the write lock before
	// closing the queue, so holding the read lock is exactly what makes
	// this send close-safe. The queue is buffered and drained by a
	// dedicated dispatcher, so blocking here means backpressure, not a
	// lock-holder stall.
	e.queue <- r //fhcvet:ignore lockhold send under sendMu.RLock is the close-safety idiom; Close excludes it via the write lock
	e.sendMu.RUnlock()
	return <-r.out
}

// direct classifies one sample synchronously, bypassing the batcher.
// Like a batch, it runs entirely on one backend under the swap lock.
func (e *Engine) direct(s *dataset.Sample) core.Prediction {
	e.swapMu.RLock()
	defer e.swapMu.RUnlock()
	backend := e.state.Load().backend
	probas := backend.PredictProbaBatch([]dataset.Sample{*s})
	return backend.PredictFromProba(probas[0])
}

// dispatch accumulates requests into windows bounded by BatchSize and
// MaxLatency and hands each window to an executor, at most Workers of
// which run at once.
func (e *Engine) dispatch() {
	defer e.loopWG.Done()
	for {
		first, ok := <-e.queue
		if !ok {
			return
		}
		batch, acquired := e.fill(first)
		if !acquired {
			e.sem <- struct{}{}
		}
		e.loopWG.Add(1)
		go func(b []*request) {
			defer e.loopWG.Done()
			defer func() { <-e.sem }()
			e.runBatch(b)
		}(batch)
	}
}

// fill grows a window starting at first. It is work-conserving: whatever
// is already queued is taken greedily, and once the queue drains the
// window only lingers for stragglers — bounded by MaxLatency — while
// every executor is busy, because lingering with an idle executor buys
// batching nothing. Reports whether it already acquired an executor
// slot.
func (e *Engine) fill(first *request) (batch []*request, acquired bool) {
	batch = []*request{first}
	for len(batch) < e.opt.BatchSize {
		select {
		case r, ok := <-e.queue:
			if !ok {
				return batch, false
			}
			batch = append(batch, r)
			continue
		default:
		}
		break
	}
	if len(batch) >= e.opt.BatchSize {
		return batch, false
	}
	select {
	case e.sem <- struct{}{}: // idle executor: dispatch what we have
		return batch, true
	default:
	}
	deadline := time.NewTimer(e.opt.MaxLatency)
	defer deadline.Stop()
	for len(batch) < e.opt.BatchSize {
		select {
		case r, ok := <-e.queue:
			if !ok {
				return batch, false
			}
			batch = append(batch, r)
		case e.sem <- struct{}{}: // an executor freed up: go now
			return batch, true
		case <-deadline.C:
			return batch, false
		}
	}
	return batch, false
}

// runBatch executes one window and delivers per-request predictions
// with a fresh threshold read each. The backend is resolved once, under
// the swap lock, and used for the whole window — probability prediction
// and thresholding — so every request in the window is answered by
// exactly one model generation. Delivery happens inside the lock span:
// Swap's write lock therefore drains every window computed by the
// outgoing backend before it returns.
func (e *Engine) runBatch(b []*request) {
	e.batches.Add(1)
	e.batchedSamples.Add(uint64(len(b)))
	for {
		cur := e.maxB.Load()
		if uint64(len(b)) <= cur || e.maxB.CompareAndSwap(cur, uint64(len(b))) {
			break
		}
	}
	samples := make([]dataset.Sample, len(b))
	for i, r := range b {
		samples[i] = *r.sample
	}
	e.swapMu.RLock()
	defer e.swapMu.RUnlock()
	backend := e.state.Load().backend
	probas := backend.PredictProbaBatch(samples)
	for i, r := range b {
		// Delivery must stay inside the swapMu span — that is the drain
		// invariant Swap relies on — and each out channel is buffered
		// (capacity 1, one send ever), so the send cannot block.
		r.out <- backend.PredictFromProba(probas[i]) //fhcvet:ignore lockhold delivery under swapMu.RLock is the drain invariant; out has capacity 1
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

// Closed reports whether Close has completed. A closed engine still
// answers Classify (degraded to direct classification), so Closed is a
// readiness signal, not a liveness one — the HTTP layer's /readyz uses
// it to stop advertising the batching path during shutdown.
func (e *Engine) Closed() bool {
	e.sendMu.RLock()
	defer e.sendMu.RUnlock()
	return e.closed
}

// Close drains pending requests and stops the batcher. It is idempotent
// and safe alongside concurrent Classify calls, which fall back to
// direct classification once the engine is closed.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.sendMu.Lock()
		e.closed = true
		close(e.queue)
		e.sendMu.Unlock()
		e.loopWG.Wait()
	})
}
