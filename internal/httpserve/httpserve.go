// Package httpserve is the network front end of the classification
// engine: the paper's Figure-1 deployment is an always-on cluster
// service that ingests submitted binaries and classifies them
// continuously, and this package puts that service on the wire. It
// exposes the serving engine (internal/serve) over HTTP with a small,
// versioned JSON API:
//
//	POST /v1/classify        classify one binary (JSON, raw stream, or hash-first)
//	POST /v1/classify/batch  classify many binaries in one engine window
//	POST /v1/model/swap      hot-swap a persisted model artifact
//	POST /v1/retrain         kick a continuous-learning cycle (wait optional)
//	GET  /v1/retrain/status  retrainer counters and the last cycle's result
//	GET  /healthz            liveness
//	GET  /readyz             readiness (503 while shutting down)
//	GET  /metrics            Prometheus text exposition
//
// The classify route speaks three protocols, cheapest first:
//
//   - hash-first: the client POSTs {"sha256":"<hex>"} alone; the server
//     answers from the engine's prediction cache or replies 404
//     {"error":"needs_body"}, so at production duplicate rates most
//     requests never ship a binary. The warm hit is allocation-free.
//   - raw streaming: Content-Type application/octet-stream with the
//     binary as the body (?exe=name names it). The body is featurised
//     off the wire — SHA-256, the file digest and the strings digest in
//     one pass with O(1) memory — never materialised.
//   - inline JSON: {"binary_b64":...} (or {"path":...} where allowed),
//     decoded through a streaming base64 reader into the same
//     featuriser rather than into a second in-memory copy.
//
// With Options.Retrainer configured the classify routes also feed the
// continuous-learning loop: every confident prediction is offered to
// the retrainer's training store, and manual model swaps update the
// retrainer's incumbent so its promotion gate keeps comparing against
// what actually serves (see internal/retrain and OPERATIONS.md).
//
// When the served model carries an open-set calibration, every classify
// response — all three /v1/classify protocols and the batch route —
// additionally reports a "verdict" field ("class", "unknown" or
// "ambiguous"; see internal/openset). With Options.Drift configured the
// same verdict stream feeds a population-level drift detector, and a
// drift alarm kicks the retrainer when one is attached.
//
// Every protocol answers through one step per job: Collect resolves
// and featurises a body, Classify (or ClassifyAll for a burst) labels
// it, harvests it and observes its verdict, lookup answers a hash-first
// key, and Install puts a new model in service. The fhc serve
// JSON-lines loop is a thin adapter over the same Server, so the two
// surfaces cannot drift apart.
//
// The layer is production-shaped without being a framework: request
// bodies are size-limited, classification routes sit behind a
// concurrency semaphore that answers 429 when saturated (backpressure
// instead of queue collapse), per-route request counts and latency
// histograms are exported together with the engine's cache/batching/
// swap counters through internal/metrics, and Shutdown stops accepting
// work, lets in-flight requests drain through the engine's windows, and
// only then returns.
//
// Concurrency contract: one Server serves arbitrarily many concurrent
// requests; every handler is safe for concurrent use, model swaps
// included — the engine's epoch semantics guarantee each request is
// answered entirely by one model generation. Serve may be called once;
// Shutdown at most once, from any goroutine.
package httpserve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/openset"
	"repro/internal/retrain"
	"repro/internal/serve"
)

// Options configures a Server. The zero value selects production
// defaults.
type Options struct {
	// MaxBodyBytes caps a request body; larger requests are answered
	// 413. Default 64 MiB (inline base64 binaries are large).
	MaxBodyBytes int64
	// MaxSpillBytes bounds the spill buffer the streaming classify legs
	// keep for ELF structural parsing (symbols, DT_NEEDED): bodies that
	// fit are featurised bit-identically to the buffered path, larger
	// ones stream through with the structural digests left zero (see
	// dataset.FromReader). Default: MaxBodyBytes, so no feature is ever
	// lost; lower it to trade symbol features on huge binaries for a
	// smaller per-slot memory bound.
	MaxSpillBytes int
	// MaxConcurrent bounds concurrently executing classification and
	// swap requests; excess requests are answered 429 immediately —
	// backpressure the submitting prolog can retry against. Health and
	// metrics routes are exempt. Default 8x GOMAXPROCS; negative
	// disables the limit.
	MaxConcurrent int
	// ReadTimeout bounds reading an entire request, body included. It
	// is what keeps a slow client from parking inside the concurrency
	// semaphore indefinitely and starving the classification routes.
	// Default 2 minutes; negative disables it.
	ReadTimeout time.Duration
	// AllowPaths permits classify requests that name a server-local
	// file path instead of carrying content inline. Off by default: a
	// network service should not read arbitrary local files unless the
	// deployment (e.g. a trusted cluster with a shared filesystem, the
	// paper's setting) opts in.
	AllowPaths bool
	// ModelDir confines /v1/model/swap: when set, artifact paths must
	// resolve inside this directory, so a network client can name which
	// deployed artifact to install but cannot make the server read
	// arbitrary files. Empty trusts the network with any path — the
	// posture of a prolog-only cluster service behind its own perimeter.
	ModelDir string
	// LoadModel resolves a model-swap artifact path into a classifier.
	// Default core.LoadFile. Tests substitute failures and fakes.
	LoadModel func(path string) (*core.Classifier, error)
	// Collector deduplicates feature extraction across requests. A nil
	// value creates a private collector with default options.
	Collector *collector.Collector
	// Retrainer, when non-nil, enables the continuous-learning surface:
	// the classify routes harvest confident predictions into its
	// training store, POST /v1/retrain kicks a cycle, GET
	// /v1/retrain/status reports it, and manual swaps update its
	// incumbent. The caller keeps ownership (and Closes it).
	Retrainer *retrain.Retrainer
	// Drift, when non-nil, receives every served verdict (all classify
	// protocols, cache hits included) so population-level drift is
	// measured over exactly the traffic the server answered. When a
	// Retrainer is also configured, a drift alarm kicks a retraining
	// cycle. The caller keeps ownership. With a Retrainer, pass the same
	// detector as retrain.Options.Drift: Install then re-baselines it
	// through the retrainer's atomic install.
	Drift *openset.Detector
	// Registry receives the server's metrics. A nil value creates a
	// private registry, exposed on GET /metrics either way.
	Registry *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.MaxSpillBytes <= 0 {
		o.MaxSpillBytes = int(o.MaxBodyBytes)
	}
	if o.MaxConcurrent == 0 {
		o.MaxConcurrent = 8 * runtime.GOMAXPROCS(0)
	}
	if o.ReadTimeout == 0 {
		o.ReadTimeout = 2 * time.Minute
	} else if o.ReadTimeout < 0 {
		o.ReadTimeout = 0
	}
	if o.LoadModel == nil {
		o.LoadModel = core.LoadFile
	}
	if o.Collector == nil {
		o.Collector = collector.New(collector.Options{})
	}
	if o.Registry == nil {
		o.Registry = metrics.NewRegistry()
	}
	return o
}

// Server is the HTTP front end over one serving engine.
type Server struct {
	engine *serve.Engine
	opt    Options
	mux    *http.ServeMux
	sem    chan struct{} // nil when unlimited

	ready atomic.Bool
	// httpSrv is built in New, not Serve, so a Shutdown that races a
	// Serve still wins: net/http remembers the shutdown and a later
	// Serve returns ErrServerClosed instead of silently running on.
	httpSrv       *http.Server
	requests      *metrics.CounterVec
	latency       *metrics.HistogramVec
	reqBytes      *metrics.HistogramVec
	inFlight      *metrics.Gauge
	swapErrs      *metrics.Counter
	hashFirstHits *metrics.Counter
}

// New builds a Server over an engine. The caller keeps ownership of the
// engine (and of Options.Collector/Registry when provided): Shutdown
// drains HTTP traffic but closes none of them.
func New(engine *serve.Engine, opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{engine: engine, opt: opt, mux: http.NewServeMux()}
	if opt.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, opt.MaxConcurrent)
	}
	s.ready.Store(true)
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       opt.ReadTimeout,
	}
	s.registerMetrics()
	if opt.Drift != nil && opt.Retrainer != nil {
		// A population-level drift alarm is the signal the paper's
		// deployment lacks a human for: route it straight into a
		// retraining cycle. KickDrift is asynchronous, so the alarm hook
		// never blocks the classify path that observed the drift.
		opt.Drift.AddAlarmHook(func(string) { opt.Retrainer.KickDrift() })
	}

	s.mux.Handle("/v1/classify", s.instrument("/v1/classify", http.MethodPost, true, s.handleClassify))
	s.mux.Handle("/v1/classify/batch", s.instrument("/v1/classify/batch", http.MethodPost, true, s.handleBatch))
	s.mux.Handle("/v1/model/swap", s.instrument("/v1/model/swap", http.MethodPost, true, s.handleSwap))
	// Not semaphore-limited: a waited kick blocks for a full training
	// cycle (potentially minutes), and holding a classify slot that
	// long would starve the classification routes the semaphore exists
	// to protect. The retrainer serialises cycles itself, and the tiny
	// request body gets its own cap in the handler.
	s.mux.Handle("/v1/retrain", s.instrument("/v1/retrain", http.MethodPost, false, s.handleRetrain))
	s.mux.Handle("/v1/retrain/status", s.instrument("/v1/retrain/status", http.MethodGet, false, s.handleRetrainStatus))
	s.mux.Handle("/healthz", s.instrument("/healthz", http.MethodGet, false, s.handleHealthz))
	s.mux.Handle("/readyz", s.instrument("/readyz", http.MethodGet, false, s.handleReadyz))
	s.mux.Handle("/metrics", s.instrument("/metrics", http.MethodGet, false, s.handleMetrics))
	return s
}

// registerMetrics wires the request-level instruments and exports the
// engine's and collector's atomic counters as scrape-time functions, so
// observability adds no second bookkeeping path to the serving hot loop.
func (s *Server) registerMetrics() {
	reg := s.opt.Registry
	s.requests = reg.CounterVec("fhc_http_requests_total",
		"HTTP requests by route and status code.", "route", "code")
	s.latency = reg.HistogramVec("fhc_http_request_seconds",
		"HTTP request latency by route.", nil, "route")
	s.reqBytes = reg.HistogramVec("fhc_http_request_bytes",
		"HTTP request body size in bytes by route, as declared by Content-Length.",
		[]float64{256, 4096, 65536, 1 << 20, 16 << 20, 64 << 20}, "route")
	s.inFlight = reg.Gauge("fhc_http_in_flight", "HTTP requests currently executing.")
	s.swapErrs = reg.Counter("fhc_http_swap_failures_total",
		"Model-swap requests that failed to load or install an artifact.")
	s.hashFirstHits = reg.Counter("fhc_classify_hash_first_hits_total",
		"Hash-first classify probes answered from the prediction cache without a body upload.")

	// One engine/collector snapshot per scrape, captured by a
	// BeforeWrite hook: every series in a single exposition then agrees
	// with every other (hits + misses match request counts), and a
	// scrape takes the engine's stat locks once, not once per series.
	engine, coll := s.engine, s.opt.Collector
	type snapshot struct {
		eng  serve.Stats
		coll collector.Stats
	}
	var snap atomic.Pointer[snapshot]
	snap.Store(&snapshot{})
	reg.BeforeWrite(func() {
		snap.Store(&snapshot{eng: engine.Stats(), coll: coll.Stats()})
	})
	stat := func(pick func(serve.Stats) float64) func() float64 {
		return func() float64 { return pick(snap.Load().eng) }
	}
	reg.CounterFunc("fhc_engine_cache_hits_total",
		"Predictions served from the exact-hash cache.",
		stat(func(st serve.Stats) float64 { return float64(st.Hits) }))
	reg.CounterFunc("fhc_engine_cache_misses_total",
		"Predictions that went through the classifier.",
		stat(func(st serve.Stats) float64 { return float64(st.Misses) }))
	reg.CounterFunc("fhc_engine_coalesced_total",
		"Requests that piggybacked on an in-flight classification.",
		stat(func(st serve.Stats) float64 { return float64(st.Coalesced) }))
	reg.CounterFunc("fhc_engine_cache_evicted_total",
		"Prediction-cache entries evicted across all epochs.",
		stat(func(st serve.Stats) float64 { return float64(st.Evicted) }))
	reg.CounterFunc("fhc_engine_swaps_total",
		"Zero-downtime model hot-swaps installed.",
		stat(func(st serve.Stats) float64 { return float64(st.Swaps) }))
	reg.CounterFunc("fhc_engine_batches_total",
		"Micro-batch windows dispatched.",
		stat(func(st serve.Stats) float64 { return float64(st.Batches) }))
	reg.CounterFunc("fhc_engine_batched_samples_total",
		"Samples classified through micro-batch windows.",
		stat(func(st serve.Stats) float64 { return float64(st.BatchedSamples) }))
	reg.GaugeFunc("fhc_engine_batch_max",
		"Largest micro-batch window observed.",
		stat(func(st serve.Stats) float64 { return float64(st.MaxBatch) }))
	reg.GaugeFunc("fhc_engine_cache_entries",
		"Current prediction-cache population.",
		stat(func(st serve.Stats) float64 { return float64(st.CacheEntries) }))
	reg.GaugeFunc("fhc_engine_inflight_coalescing",
		"Distinct new binaries being featurised right now.",
		stat(func(st serve.Stats) float64 { return float64(st.Inflight) }))

	reg.CounterFunc("fhc_collector_seen_total",
		"Binaries submitted for collection.",
		func() float64 { return float64(snap.Load().coll.Seen) })
	reg.CounterFunc("fhc_collector_unique_total",
		"Distinct binaries that paid feature extraction.",
		func() float64 { return float64(snap.Load().coll.Unique) })
	reg.CounterFunc("fhc_collector_cache_hits_total",
		"Extractions skipped via the exact-hash extraction cache.",
		func() float64 { return float64(snap.Load().coll.CacheHits) })
}

// Handler returns the routed handler; use it to mount the API in an
// existing http.Server or a test server.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown (or a listener error).
// It blocks, like http.Server.Serve, and returns http.ErrServerClosed
// after a clean Shutdown — including a Shutdown that completed before
// Serve was called.
func (s *Server) Serve(ln net.Listener) error {
	return s.httpSrv.Serve(ln)
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown drains the server gracefully: /readyz flips to 503 so load
// balancers stop routing here, no new connections are accepted, and
// in-flight requests — including classifications riding engine windows —
// run to completion (bounded by ctx). The engine itself stays open;
// its owner closes it after Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	return s.httpSrv.Shutdown(ctx)
}

// ----- request/response wire types -------------------------------------

// ClassifyRequest names one binary: content inline (base64), by
// server-local path where the server allows it, or — the hash-first
// protocol — by SHA-256 alone. Exe is the submitted executable name,
// used for response echo and per-item error reporting only.
type ClassifyRequest struct {
	Exe       string `json:"exe,omitempty"`
	Path      string `json:"path,omitempty"`
	BinaryB64 string `json:"binary_b64,omitempty"`
	// SHA256 is the lowercase-hex SHA-256 of the binary, sent without
	// content: the server answers from its prediction cache, or 404
	// {"error":"needs_body"} telling the client to upload the binary.
	// It cannot be combined with path or binary_b64.
	SHA256 string `json:"sha256,omitempty"`
}

// ClassifyResponse is one prediction. Verdict is the open-set decision
// ("class", "unknown" or "ambiguous") and is omitted when the served
// model carries no calibration, so closed-set deployments see the exact
// response shape they always did. Cached reports an extraction-cache
// hit (the binary was seen before); Error is set on per-item failures in
// batch responses.
type ClassifyResponse struct {
	Exe        string  `json:"exe,omitempty"`
	Label      string  `json:"label,omitempty"`
	Class      string  `json:"class,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	Verdict    string  `json:"verdict,omitempty"`
	Cached     bool    `json:"cached,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// BatchRequest carries many classify requests that should share engine
// windows.
type BatchRequest struct {
	Samples []ClassifyRequest `json:"samples"`
}

// BatchResponse holds one result per request, in request order.
type BatchResponse struct {
	Results []ClassifyResponse `json:"results"`
}

// SwapRequest names a persisted model artifact to hot-swap in.
type SwapRequest struct {
	Path string `json:"path"`
}

// RetrainRequest kicks a continuous-learning cycle. With Wait the
// request blocks until the cycle completes and returns its result;
// without it the cycle runs in the background and the response is an
// acknowledgement (poll /v1/retrain/status for the outcome). An empty
// body is a background kick.
type RetrainRequest struct {
	Wait bool `json:"wait,omitempty"`
}

// RetrainResponse acknowledges a triggered cycle; Result is set only
// for waited requests.
type RetrainResponse struct {
	Triggered bool            `json:"triggered"`
	Result    *retrain.Result `json:"result,omitempty"`
}

// SwapResponse acknowledges an installed swap.
type SwapResponse struct {
	ModelKind string `json:"model_kind"`
	Swaps     uint64 `json:"swaps"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ----- middleware -------------------------------------------------------

// routeInstruments holds one route's metric children, resolved once at
// registration so the per-request path touches no label rendering: a
// child lookup is a map probe and an atomic add.
type routeInstruments struct {
	latency *metrics.Histogram
	bytes   *metrics.Histogram
	codes   map[int]*metrics.Counter
}

// instrumentCodes are the status codes the handlers actually emit;
// their counter children are precomputed per route. Anything else falls
// back to the (allocating) labelled lookup.
var instrumentCodes = []int{
	http.StatusOK, http.StatusAccepted,
	http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed,
	http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity,
	http.StatusTooManyRequests,
	http.StatusInternalServerError, http.StatusServiceUnavailable,
}

// statusText renders a status code without fmt; codes outside the
// precomputed set take the strconv path.
func statusText(code int) string {
	return strconv.Itoa(code)
}

// recPool recycles status recorders so instrumentation allocates
// nothing per request.
var recPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// instrument wraps a handler with method filtering, saturation
// backpressure and per-route metrics. Body limiting is the handler's
// job (http.MaxBytesReader per leg): the hash-first classify fast path
// reads through a bounded pooled buffer instead, and wrapping the body
// here would put an allocation on its zero-allocation request path.
func (s *Server) instrument(route, method string, limited bool, h http.HandlerFunc) http.Handler {
	ri := &routeInstruments{
		latency: s.latency.With(route),
		bytes:   s.reqBytes.With(route),
		codes:   make(map[int]*metrics.Counter, len(instrumentCodes)),
	}
	for _, code := range instrumentCodes {
		ri.codes[code] = s.requests.With(route, statusText(code))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := recPool.Get().(*statusRecorder)
		rec.ResponseWriter, rec.code = w, http.StatusOK
		s.inFlight.Add(1)
		defer func() {
			s.inFlight.Add(-1)
			if c, ok := ri.codes[rec.code]; ok {
				c.Inc()
			} else {
				s.requests.With(route, statusText(rec.code)).Inc()
			}
			ri.latency.Observe(time.Since(start).Seconds())
			if r.ContentLength >= 0 {
				ri.bytes.Observe(float64(r.ContentLength))
			}
			rec.ResponseWriter = nil
			recPool.Put(rec)
		}()

		if r.Method != method {
			rec.Header().Set("Allow", method)
			writeJSON(rec, http.StatusMethodNotAllowed, errorResponse{Error: "method not allowed"})
			return
		}
		if limited && s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				writeJSON(rec, http.StatusTooManyRequests,
					errorResponse{Error: "server saturated; retry with backoff"})
				return
			}
		}
		h(rec, r)
	})
}

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeJSON reads a size-limited request body, mapping an exceeded
// limit to 413 and malformed JSON to 400. It reports whether decoding
// succeeded; on failure the response has been written.
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	body := http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		writeDecodeError(w, err)
		return false
	}
	return true
}

// writeDecodeError maps a JSON decode failure onto the wire: 413 when
// the body limit tripped, 400 otherwise.
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
		return
	}
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad request: %v", err)})
}

// ----- handlers ---------------------------------------------------------

// Collect resolves the binary a request names — inline base64 or a
// server-local path, exactly one of them — and streams it into the
// collector's single-pass featuriser: base64 decodes through a
// streaming reader, so the binary is never materialised as a second
// in-memory copy, and a path streams straight off the filesystem. It
// is the one source-resolution step of the JSON classify leg, batch
// items and the fhc serve stream loop. allowPaths says whether this
// caller may name a path: the HTTP legs pass Options.AllowPaths, the
// operator's own event stream passes true. On failure code is the HTTP
// status to answer: 400 for request-shape problems (missing content,
// disabled paths, corrupt base64), 422 when a well-formed body failed
// feature extraction.
func (s *Server) Collect(req *ClassifyRequest, allowPaths bool) (sample dataset.Sample, cached bool, code int, err error) {
	var src io.Reader
	switch {
	case req.Path != "" && req.BinaryB64 != "":
		return sample, false, http.StatusBadRequest, errors.New("request has both path and binary_b64")
	case req.BinaryB64 != "":
		src = base64.NewDecoder(base64.StdEncoding, strings.NewReader(req.BinaryB64))
	case req.Path != "":
		if !allowPaths {
			return sample, false, http.StatusBadRequest, errors.New("path requests are disabled on this server (send binary_b64)")
		}
		f, err := os.Open(req.Path)
		if err != nil {
			return sample, false, http.StatusBadRequest, fmt.Errorf("path: %w", err)
		}
		defer f.Close()
		src = f
	default:
		return sample, false, http.StatusBadRequest, errors.New("request has neither path nor binary_b64")
	}
	return s.collectStream(req.Exe, src)
}

// collectStream feeds one body into the collector and maps a failure
// onto the wire: 413 when the body limit tripped, 400 for corrupt
// base64, 422 when extraction rejected a well-formed body.
func (s *Server) collectStream(exe string, r io.Reader) (sample dataset.Sample, cached bool, code int, err error) {
	sample, cached, err = s.opt.Collector.CollectStream(exe, r, s.opt.MaxSpillBytes)
	if err != nil {
		var tooLarge *http.MaxBytesError
		var corrupt base64.CorruptInputError
		switch {
		case errors.As(err, &tooLarge):
			return sample, false, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
		case errors.As(err, &corrupt):
			return sample, false, http.StatusBadRequest, fmt.Errorf("binary_b64: %w", corrupt)
		}
		return sample, false, http.StatusUnprocessableEntity, fmt.Errorf("collect: %w", err)
	}
	return sample, cached, 0, nil
}

// Classify labels one collected sample and offers the served
// prediction to the continuous-learning store and the drift detector,
// when those are configured: the one classify step every body-carrying
// protocol and the fhc serve stream loop share. It satisfies
// monitor.Labeler.
func (s *Server) Classify(sample *dataset.Sample) core.Prediction {
	pred := s.engine.Classify(sample)
	s.served(sample, pred)
	return pred
}

// ClassifyAll is Classify over a burst, classified in shared engine
// windows. It satisfies monitor.BatchLabeler.
func (s *Server) ClassifyAll(samples []dataset.Sample) []core.Prediction {
	preds := s.engine.ClassifyAll(samples)
	for i := range preds {
		s.served(&samples[i], preds[i])
	}
	return preds
}

// served harvests one body-carrying prediction — the retrainer applies
// its own gates, and the store dedups a cache-served duplicate — and
// observes its verdict.
func (s *Server) served(sample *dataset.Sample, pred core.Prediction) {
	if rt := s.opt.Retrainer; rt != nil {
		rt.ObservePrediction(sample, pred)
	}
	s.observe(pred)
}

// observe feeds one served verdict to the drift detector, when one is
// configured. Cache hits are observed too: drift is a property of the
// traffic population, not of which path answered.
//
// fhc:hotpath
func (s *Server) observe(pred core.Prediction) {
	if s.opt.Drift != nil {
		s.opt.Drift.Observe(pred.Verdict, pred.Confidence)
	}
}

// lookup answers a hash-first key from the prediction cache. A hit is a
// served verdict, so it is counted and drift-observed; it is never
// harvested, because no body arrived to learn from.
//
// fhc:hotpath
func (s *Server) lookup(key serve.Key) (core.Prediction, bool) {
	pred, hit := s.engine.Lookup(key)
	if hit {
		s.hashFirstHits.Inc()
		s.observe(pred)
	}
	return pred, hit
}

// lookupRequest answers a decoded hash-first request — the slow JSON
// leg and batch items — rejecting a digest that is malformed or rides
// along with content.
func (s *Server) lookupRequest(req *ClassifyRequest) (pred core.Prediction, hit bool, err error) {
	if req.BinaryB64 != "" || req.Path != "" {
		return pred, false, errors.New("sha256 cannot be combined with binary_b64 or path")
	}
	key, err := parseSHA256(req.SHA256)
	if err != nil {
		return pred, false, err
	}
	pred, hit = s.lookup(key)
	return pred, hit, nil
}

// Install hot-swaps clf into the engine with zero downtime: the one
// model-install path of the swap route and the fhc serve reload line.
// With a Retrainer, InstallIncumbent also moves the promotion gate's
// baseline — and re-baselines the detector shared through
// retrain.Options.Drift — in one atomic step, so a swap racing an
// automatic promotion cannot leave the gate comparing against a model
// the engine no longer serves. Without one, the engine swaps and the
// drift detector re-baselines from clf's own calibration.
func (s *Server) Install(clf *core.Classifier) {
	if rt := s.opt.Retrainer; rt != nil {
		rt.InstallIncumbent(clf)
		return
	}
	s.engine.Swap(clf)
	s.opt.Drift.Rebaseline(clf.Calibration())
}

// octetStream is the Content-Type selecting the raw streaming leg.
const octetStream = "application/octet-stream"

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	ct := r.Header.Get("Content-Type")
	if ct == octetStream || strings.HasPrefix(ct, octetStream+";") {
		s.handleClassifyRaw(w, r)
		return
	}
	s.handleClassifyJSON(w, r)
}

// handleClassifyRaw is the raw streaming leg: the body is the binary,
// fed straight off the wire into the single-pass featuriser — no
// base64, no io.ReadAll, O(1) memory however large the executable. The
// submitted name rides the ?exe= query parameter.
//
// fhc:hotpath
func (s *Server) handleClassifyRaw(w http.ResponseWriter, r *http.Request) {
	exe := r.URL.Query().Get("exe")
	sample, cached, code, err := s.collectStream(exe, http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
	if err != nil {
		writeJSON(w, code, errorResponse{Error: err.Error()})
		return
	}
	writeClassifyResponse(w, exe, s.Classify(&sample), cached)
}

// hashFirstPrefixSize bounds the body prefix examined for the
// hash-first fast path; a hash-first request is a tiny flat object and
// always fits.
const hashFirstPrefixSize = 4096

// prefixPool recycles the classify prefix buffers.
var prefixPool = sync.Pool{New: func() any {
	b := make([]byte, hashFirstPrefixSize)
	return &b
}}

// handleClassifyJSON serves the JSON legs of /v1/classify. The body
// prefix is read into a pooled buffer first: if it is a complete
// hash-first request ({"sha256":...} alone), the engine cache is probed
// and answered without a JSON decoder, an encoder, or any allocation —
// the warm path for clients that hash before they upload. Everything
// else falls through to the full decoder.
//
// fhc:hotpath
func (s *Server) handleClassifyJSON(w http.ResponseWriter, r *http.Request) {
	bp := prefixPool.Get().(*[]byte)
	defer prefixPool.Put(bp)
	buf := *bp
	n, complete, err := readPrefix(r.Body, buf)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
		return
	}
	if int64(n) > s.opt.MaxBodyBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: "request body exceeds " + strconv.FormatInt(s.opt.MaxBodyBytes, 10) + " bytes"})
		return
	}
	if complete {
		if key, exe, ok := ParseHashFirst(buf[:n]); ok {
			if pred, hit := s.lookup(key); hit {
				writeClassifyResponse(w, exe, pred, true)
				return
			}
			writeNeedsBody(w)
			return
		}
	}
	s.classifySlow(w, r, buf[:n], complete)
}

// classifySlow is the fully general JSON classify path: whatever the
// fast-path scanner could not handle lands here and goes through the
// standard decoder, including hash-first requests with escaped strings
// or unusual layout.
func (s *Server) classifySlow(w http.ResponseWriter, r *http.Request, prefix []byte, complete bool) {
	var req ClassifyRequest
	if complete {
		if err := json.Unmarshal(prefix, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad request: %v", err)})
			return
		}
	} else {
		rest := http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes-int64(len(prefix)))
		body := io.MultiReader(bytes.NewReader(prefix), rest)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			writeDecodeError(w, err)
			return
		}
	}
	if req.SHA256 != "" {
		pred, hit, err := s.lookupRequest(&req)
		switch {
		case err != nil:
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		case hit:
			writeClassifyResponse(w, req.Exe, pred, true)
		default:
			writeNeedsBody(w)
		}
		return
	}
	sample, cached, code, err := s.Collect(&req, s.opt.AllowPaths)
	if err != nil {
		writeJSON(w, code, errorResponse{Error: err.Error()})
		return
	}
	writeClassifyResponse(w, req.Exe, s.Classify(&sample), cached)
}

// ----- hash-first fast path ---------------------------------------------

// readPrefix fills buf from r, returning how many bytes arrived and
// whether the body ended inside the buffer. A body that exactly fills
// the buffer reports complete=false and takes the slow path; only EOF
// within the buffer proves the request is small.
func readPrefix(r io.Reader, buf []byte) (n int, complete bool, err error) {
	for n < len(buf) {
		m, rerr := r.Read(buf[n:])
		n += m
		if rerr == io.EOF {
			return n, true, nil
		}
		if rerr != nil {
			return n, false, rerr
		}
	}
	return n, false, nil
}

// skipSpace advances past JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanPlainString scans a JSON string at b[i] containing no escape
// sequences, no control characters and no bytes outside ASCII,
// returning its contents and the index past the closing quote.
// Anything fancier bails to the decoder. The ASCII bound is what keeps
// the scanner bit-identical to encoding/json: the decoder rewrites
// invalid UTF-8 to U+FFFD, so passing raw high bytes through here
// could answer with an exe echo the slow path would never produce.
func scanPlainString(b []byte, i int) (s []byte, rest int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		c := b[j]
		if c == '"' {
			return b[i+1 : j], j + 1, true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// ParseHashFirst recognises the exact hash-first request shape — one
// flat JSON object whose keys are "sha256" and optionally "exe", with
// plain string values — and extracts the prediction-cache key. It is
// deliberately conservative: any other key, escape sequence or layout
// reports !ok and the request goes through the full decoder, so the
// fast scanner never changes what the API accepts, only what it costs.
// Exported for the cluster router, which uses the same scanner to
// resolve a hash-first probe to its owning shard without decoding.
func ParseHashFirst(body []byte) (key serve.Key, exe []byte, ok bool) {
	i := skipSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return key, nil, false
	}
	i = skipSpace(body, i+1)
	var haveSHA bool
	for {
		k, rest, kok := scanPlainString(body, i)
		if !kok {
			return key, nil, false
		}
		i = skipSpace(body, rest)
		if i >= len(body) || body[i] != ':' {
			return key, nil, false
		}
		v, rest2, vok := scanPlainString(body, skipSpace(body, i+1))
		if !vok {
			return key, nil, false
		}
		switch string(k) {
		case "sha256":
			if len(v) != 2*len(key) {
				return key, nil, false
			}
			if _, err := hex.Decode(key[:], v); err != nil {
				return key, nil, false
			}
			haveSHA = true
		case "exe":
			exe = v
		default:
			return key, nil, false
		}
		i = skipSpace(body, rest2)
		if i >= len(body) {
			return key, nil, false
		}
		if body[i] == '}' {
			i = skipSpace(body, i+1)
			return key, exe, haveSHA && i == len(body)
		}
		if body[i] != ',' {
			return key, nil, false
		}
		i = skipSpace(body, i+1)
	}
}

// parseSHA256 decodes a hash-first hex digest from the slow path.
func parseSHA256(s string) (serve.Key, error) {
	var key serve.Key
	if len(s) != 2*len(key) {
		return key, errors.New("sha256 must be 64 hex characters")
	}
	if _, err := hex.Decode(key[:], []byte(s)); err != nil {
		return key, errors.New("sha256 is not valid hex")
	}
	return key, nil
}

// jsonContentType is the shared Content-Type value the allocation-free
// writers install by direct header assignment (Set would copy it).
var jsonContentType = []string{"application/json"}

// needsBodyJSON answers a hash-first probe the cache cannot satisfy.
var needsBodyJSON = []byte("{\"error\":\"needs_body\"}\n")

func writeNeedsBody(w http.ResponseWriter) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusNotFound)
	_, _ = w.Write(needsBodyJSON)
}

// respBufPool recycles classify response buffers.
var respBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// writeClassifyResponse hand-renders a ClassifyResponse into a pooled
// buffer, byte-compatible with encoding/json's omitempty output
// (trailing newline included), so the warm hash-first hit allocates
// nothing. Generic over the exe name so the fast path can pass the
// slice scanned out of the request without converting it to a string.
//
// fhc:hotpath
func writeClassifyResponse[T string | []byte](w http.ResponseWriter, exe T, pred core.Prediction, cached bool) {
	bp := respBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, '{')
	if len(exe) > 0 {
		buf = append(buf, `"exe":`...)
		buf = appendJSONString(buf, exe)
	}
	if pred.Label != "" {
		if len(buf) > 1 {
			buf = append(buf, ',')
		}
		buf = append(buf, `"label":`...)
		buf = appendJSONString(buf, pred.Label)
	}
	if pred.Class != "" {
		if len(buf) > 1 {
			buf = append(buf, ',')
		}
		buf = append(buf, `"class":`...)
		buf = appendJSONString(buf, pred.Class)
	}
	if pred.Confidence != 0 {
		if len(buf) > 1 {
			buf = append(buf, ',')
		}
		buf = append(buf, `"confidence":`...)
		buf = appendJSONFloat(buf, pred.Confidence)
	}
	if pred.Verdict != "" {
		if len(buf) > 1 {
			buf = append(buf, ',')
		}
		buf = append(buf, `"verdict":`...)
		buf = appendJSONString(buf, string(pred.Verdict))
	}
	if cached {
		if len(buf) > 1 {
			buf = append(buf, ',')
		}
		buf = append(buf, `"cached":true`...)
	}
	buf = append(buf, '}', '\n')
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
	*bp = buf
	respBufPool.Put(bp)
}

// appendJSONFloat appends f the way encoding/json renders float64s —
// shortest 'f' form in the ordinary range, 'e' form with a trimmed
// exponent outside it — keeping the hand-rendered response
// byte-identical to the encoder the slow legs use.
//
// fhc:hotpath
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, escaping the quote,
// backslash and control characters the grammar requires.
//
// fhc:hotpath
func appendJSONString[T string | []byte](dst []byte, s T) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// handleBatch classifies many binaries through one ClassifyAll call, so
// a submitted burst fans into shared engine windows instead of N
// sequential classifications. Items that fail resolution or extraction
// keep their slot with a per-item error; order is preserved.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeJSON(w, r, s.opt.MaxBodyBytes, &req) {
		return
	}
	if len(req.Samples) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "batch has no samples"})
		return
	}
	resp := BatchResponse{Results: make([]ClassifyResponse, len(req.Samples))}
	var (
		good  []int // request index of each collected sample
		batch = make([]dataset.Sample, 0, len(req.Samples))
	)
	for i := range req.Samples {
		item := &req.Samples[i]
		resp.Results[i].Exe = item.Exe
		if item.SHA256 != "" {
			// Hash-first batch items probe the prediction cache; misses
			// keep their slot with the needs_body marker so the client
			// knows which binaries to upload.
			switch pred, hit, err := s.lookupRequest(item); {
			case err != nil:
				resp.Results[i].Error = err.Error()
			case hit:
				resp.Results[i] = classifyResponse(item.Exe, pred, true)
			default:
				resp.Results[i].Error = "needs_body"
			}
			continue
		}
		sample, cached, _, err := s.Collect(item, s.opt.AllowPaths)
		if err != nil {
			resp.Results[i].Error = err.Error()
			continue
		}
		resp.Results[i].Cached = cached
		good = append(good, i)
		batch = append(batch, sample)
	}
	if len(batch) > 0 {
		for j, pred := range s.ClassifyAll(batch) {
			i := good[j]
			resp.Results[i] = classifyResponse(req.Samples[i].Exe, pred, resp.Results[i].Cached)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// classifyResponse renders one batch item's prediction.
func classifyResponse(exe string, pred core.Prediction, cached bool) ClassifyResponse {
	return ClassifyResponse{
		Exe: exe, Label: pred.Label, Class: pred.Class,
		Confidence: pred.Confidence, Verdict: string(pred.Verdict), Cached: cached,
	}
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	var req SwapRequest
	// A swap request names one artifact path; 1 MiB is generous.
	if !decodeJSON(w, r, 1<<20, &req) {
		return
	}
	if req.Path == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "swap request has no path"})
		return
	}
	if dir := s.opt.ModelDir; dir != "" {
		abs, err := filepath.Abs(req.Path)
		absDir, err2 := filepath.Abs(dir)
		if err != nil || err2 != nil ||
			(abs != absDir && !strings.HasPrefix(abs, absDir+string(filepath.Separator))) {
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: "swap path is outside the configured model directory"})
			return
		}
	}
	next, err := s.opt.LoadModel(req.Path)
	if err != nil {
		// The previous model keeps serving; the caller retries with a
		// fixed artifact.
		s.swapErrs.Inc()
		writeJSON(w, http.StatusUnprocessableEntity,
			errorResponse{Error: fmt.Sprintf("load model: %v", err)})
		return
	}
	s.Install(next)
	writeJSON(w, http.StatusOK, SwapResponse{
		ModelKind: next.ModelKind(),
		Swaps:     s.engine.Stats().Swaps,
	})
}

// handleRetrain kicks a continuous-learning cycle: by default the cycle
// runs in the background and the request is acknowledged 202; with
// {"wait":true} the request blocks for the cycle and returns its
// result. 404 when retraining is not configured.
func (s *Server) handleRetrain(w http.ResponseWriter, r *http.Request) {
	rt := s.opt.Retrainer
	if rt == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: "retraining is not configured on this server"})
		return
	}
	var req RetrainRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20) // the request is a tiny flag object
	if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad request: %v", err)})
		return
	}
	if req.Wait {
		res := rt.RunNow("http")
		writeJSON(w, http.StatusOK, RetrainResponse{Triggered: true, Result: &res})
		return
	}
	rt.Kick()
	writeJSON(w, http.StatusAccepted, RetrainResponse{Triggered: true})
}

// handleRetrainStatus reports the retrainer's counters, store
// population and the last cycle's result.
func (s *Server) handleRetrainStatus(w http.ResponseWriter, _ *http.Request) {
	rt := s.opt.Retrainer
	if rt == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: "retraining is not configured on this server"})
		return
	}
	writeJSON(w, http.StatusOK, rt.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() || s.engine.Closed() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.opt.Registry.WritePrometheus(w)
}
