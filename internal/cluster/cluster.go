// Package cluster is the distributed serving tier: a stateless router
// that spreads the classification service across a fleet of worker
// replicas, each running the existing serving engine behind
// internal/httpserve, while preserving the single-process design's key
// property cluster-wide — every binary's featurisation and coalescing
// happens on exactly one shard.
//
// The router consistent-hashes on the engine cache key (the binary's
// SHA-256, serve.Key): each of the three /v1/classify protocols is
// resolved to that key before any forwarding happens — raw streaming
// bodies are hashed off the wire, hash-first probes carry the key
// outright, and inline base64 is hashed through a streaming decoder —
// so duplicate submissions of one binary always land on the shard
// already holding its prediction, whichever protocol or client they
// arrive by. Batch requests split per item and fan out to the owning
// shards.
//
// Worker membership is health-based: every worker's /readyz is polled
// continuously; a failing worker is ejected from routing and re-probed
// with jittered exponential backoff until it answers again, at which
// point it is readmitted and its keys return. While a worker is out,
// the ring routes its keys to the next shard — deterministically, so
// affinity holds under churn too. Slow shards are absorbed by hedged
// retries: when a forwarded request exceeds the hedge budget, one (and
// never more than one) duplicate request is raced against the next
// shard on the ring, the first response wins and the loser is
// cancelled; transport errors retry on the next shard immediately.
//
// Model promotion is a coordinated, staged rollout rather than N
// independent swaps: /v1/model/swap drives the canary shard first,
// gates on the canary answering /readyz (and on the optional Gate
// hook), then expands shard by shard; any failure rolls every
// already-swapped shard back to the incumbent artifact (the rollback
// set internal/retrain's artifact history maintains). The whole tier
// is observable through fhc_cluster_* metrics — per-shard requests,
// hedges fired and won, ejections, rollout state — on the router's
// /metrics.
//
// Concurrency contract: one Router serves arbitrarily many concurrent
// requests; every handler, Stats and WorkerStates are safe from any
// goroutine. Rollouts serialise internally (a second concurrent swap
// is refused, not queued). Close stops the health prober and the
// artifact watcher; it does not touch the workers.
package cluster

import (
	"errors"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// maxWorkers bounds the fleet size; the ring's candidate scan uses a
// fixed-size worker-index set sized to it.
const maxWorkers = 64

// WorkerSpec names one worker replica for New.
type WorkerSpec struct {
	// Name is the shard label used in metrics and status output.
	// Empty derives host:port from the URL.
	Name string
	// URL is the worker's base URL, e.g. http://10.0.0.7:8080.
	URL string
}

// Options configures a Router. The zero value selects production
// defaults.
type Options struct {
	// Replicas is the number of virtual nodes per worker on the hash
	// ring; more replicas smooth the key distribution. Default 64.
	Replicas int
	// HedgeAfter is the latency budget before a hedged duplicate of a
	// classify request is raced against the next shard on the ring.
	// At most one hedge is ever fired per request. Default 100ms;
	// negative disables hedging.
	HedgeAfter time.Duration
	// MaxAttempts bounds how many distinct shards one request may try,
	// the first attempt, its hedge and error retries all counted.
	// Default 3, clamped to the worker count.
	MaxAttempts int
	// MaxBodyBytes caps a routed request body; larger requests are
	// answered 413. The router buffers bodies to hash-route them and to
	// replay hedges, so this is also its per-request memory bound.
	// Default 64 MiB.
	MaxBodyBytes int64
	// RequestTimeout bounds one classify request end to end, hedges
	// included. Default 60s; negative disables.
	RequestTimeout time.Duration
	// HealthInterval is the /readyz polling period for ready workers.
	// Default 1s.
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe. Default 1s.
	HealthTimeout time.Duration
	// MaxBackoff caps the jittered exponential re-probe backoff for
	// ejected workers. Default 30s.
	MaxBackoff time.Duration
	// SwapTimeout bounds one per-shard swap call during a rollout.
	// Default 30s.
	SwapTimeout time.Duration
	// IncumbentArtifact is the model artifact every worker currently
	// serves — the rollback target until the first staged rollout
	// promotes a new one. Rollouts are refused while it is empty,
	// because a rollout that cannot roll back is not staged, it is
	// hope.
	IncumbentArtifact string
	// Gate, when non-nil, runs after the canary answers /readyz; a
	// non-nil error fails the rollout and triggers rollback. fhc route
	// sets none.
	Gate func(canary *Worker) error
	// Transport substitutes the forwarding round-tripper. Default: a
	// dedicated http.Transport. Tests inject fault-injecting wrappers.
	Transport http.RoundTripper
	// Registry receives the fhc_cluster_* metrics. A nil value creates
	// a private registry, exposed on the router's /metrics either way.
	Registry *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = 64
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 100 * time.Millisecond
	} else if o.HedgeAfter < 0 {
		o.HedgeAfter = 0
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 60 * time.Second
	} else if o.RequestTimeout < 0 {
		o.RequestTimeout = 0
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = time.Second
	}
	if o.HealthTimeout <= 0 {
		o.HealthTimeout = time.Second
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 30 * time.Second
	}
	if o.SwapTimeout <= 0 {
		o.SwapTimeout = 30 * time.Second
	}
	if o.Transport == nil {
		o.Transport = &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	if o.Registry == nil {
		o.Registry = metrics.NewRegistry()
	}
	return o
}

// Worker is one shard of the fleet: a worker replica the router
// forwards to, with its health state and per-shard instruments.
type Worker struct {
	name string
	base string // normalised base URL, no trailing slash
	idx  int    // registration index; stable canary/rollout order

	classifyURL string
	batchURL    string
	swapURL     string
	readyzURL   string

	ready atomic.Bool
	kick  chan struct{} // wakes the health prober early, capacity 1

	// Per-shard metric children, resolved once at construction so the
	// forwarding path never renders labels.
	requests     *metrics.Counter
	errs         *metrics.Counter
	ejections    *metrics.Counter
	readmissions *metrics.Counter
}

// Name returns the shard label.
func (w *Worker) Name() string { return w.name }

// URL returns the worker's base URL.
func (w *Worker) URL() string { return w.base }

// Ready reports whether the worker is currently admitted to routing.
func (w *Worker) Ready() bool { return w.ready.Load() }

// WorkerState is one worker's row in the cluster status output.
type WorkerState struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Ready bool   `json:"ready"`
}

// Stats is a snapshot of router activity. Per-shard counts are on the
// fhc_cluster_* metrics; Stats carries the fleet-wide counters tests
// and status pages want without a scrape.
type Stats struct {
	// HedgesFired counts hedged duplicates raced against a second
	// shard; HedgeWins counts the ones that answered first.
	HedgesFired, HedgeWins uint64
	// Retries counts attempts relaunched on the next shard after a
	// transport error.
	Retries uint64
	// Unroutable counts requests refused because no worker was ready.
	Unroutable uint64
}

// New builds a Router over a fleet of workers. Workers start admitted
// (optimistically ready) and the health prober corrects that within
// one probe round; routing order and canary order follow the given
// worker order. The caller releases the router with Close.
func New(specs []WorkerSpec, opt Options) (*Router, error) {
	if len(specs) == 0 {
		return nil, errors.New("cluster: New requires at least one worker")
	}
	if len(specs) > maxWorkers {
		return nil, errors.New("cluster: fleet exceeds " + strconv.Itoa(maxWorkers) + " workers")
	}
	opt = opt.withDefaults()

	reqVec := opt.Registry.CounterVec("fhc_cluster_requests_total",
		"Forward attempts by shard, hedges and retries included.", "shard")
	errVec := opt.Registry.CounterVec("fhc_cluster_shard_errors_total",
		"Forward attempts that failed at transport level, by shard.", "shard")
	ejectVec := opt.Registry.CounterVec("fhc_cluster_ejections_total",
		"Health-based ejections from routing, by shard.", "shard")
	readmitVec := opt.Registry.CounterVec("fhc_cluster_readmissions_total",
		"Ejected workers readmitted after a successful re-probe, by shard.", "shard")

	workers := make([]*Worker, 0, len(specs))
	seen := map[string]bool{}
	for i, spec := range specs {
		u, err := url.Parse(spec.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, errors.New("cluster: worker URL must be absolute (http://host:port): " + spec.URL)
		}
		base := strings.TrimSuffix(u.String(), "/")
		name := spec.Name
		if name == "" {
			name = u.Host
		}
		if seen[name] {
			return nil, errors.New("cluster: duplicate worker name " + name)
		}
		seen[name] = true
		w := &Worker{
			name:         name,
			base:         base,
			idx:          i,
			classifyURL:  base + "/v1/classify",
			batchURL:     base + "/v1/classify/batch",
			swapURL:      base + "/v1/model/swap",
			readyzURL:    base + "/readyz",
			kick:         make(chan struct{}, 1),
			requests:     reqVec.With(name),
			errs:         errVec.With(name),
			ejections:    ejectVec.With(name),
			readmissions: readmitVec.With(name),
		}
		w.ready.Store(true)
		workers = append(workers, w)
	}

	rt := &Router{
		opt:     opt,
		workers: workers,
		ring:    buildRing(workers, opt.Replicas),
		client:  &http.Client{Transport: opt.Transport},
	}
	rt.registerMetrics()
	rt.coord = newCoordinator(rt)
	rt.member = newMembership(rt)
	rt.buildMux()
	rt.member.start()
	return rt, nil
}

// Router is the stateless front tier over one worker fleet. Create
// with New, release with Close.
type Router struct {
	opt     Options
	workers []*Worker
	ring    *ring
	client  *http.Client
	member  *membership
	coord   *Coordinator
	mux     *http.ServeMux

	hedgesFired, hedgeWins atomic.Uint64
	retries, unroutable    atomic.Uint64

	latClassify *metrics.Histogram
	latBatch    *metrics.Histogram
	responses   *metrics.CounterVec
}

// registerMetrics wires the fleet-level instruments; per-shard children
// are resolved in New.
func (rt *Router) registerMetrics() {
	reg := rt.opt.Registry
	reg.CounterFunc("fhc_cluster_hedges_total",
		"Hedged duplicate requests raced against the next shard on the ring.",
		func() float64 { return float64(rt.hedgesFired.Load()) })
	reg.CounterFunc("fhc_cluster_hedge_wins_total",
		"Hedged duplicates that answered before the original attempt.",
		func() float64 { return float64(rt.hedgeWins.Load()) })
	reg.CounterFunc("fhc_cluster_retries_total",
		"Attempts relaunched on the next shard after a transport error.",
		func() float64 { return float64(rt.retries.Load()) })
	reg.CounterFunc("fhc_cluster_unroutable_total",
		"Requests refused because no worker was ready.",
		func() float64 { return float64(rt.unroutable.Load()) })
	reg.GaugeFunc("fhc_cluster_ready_workers",
		"Workers currently admitted to routing.",
		func() float64 {
			n := 0
			for _, w := range rt.workers {
				if w.Ready() {
					n++
				}
			}
			return float64(n)
		})
	lat := reg.HistogramVec("fhc_cluster_request_seconds",
		"Router request latency by route, hedges and retries included.", nil, "route")
	rt.latClassify = lat.With("/v1/classify")
	rt.latBatch = lat.With("/v1/classify/batch")
	rt.responses = reg.CounterVec("fhc_cluster_responses_total",
		"Router responses by route and status code.", "route", "code")
}

// Stats returns a snapshot of the fleet-wide router counters.
func (rt *Router) Stats() Stats {
	return Stats{
		HedgesFired: rt.hedgesFired.Load(),
		HedgeWins:   rt.hedgeWins.Load(),
		Retries:     rt.retries.Load(),
		Unroutable:  rt.unroutable.Load(),
	}
}

// WorkerStates reports each worker's admission state in registration
// order.
func (rt *Router) WorkerStates() []WorkerState {
	out := make([]WorkerState, len(rt.workers))
	for i, w := range rt.workers {
		out[i] = WorkerState{Name: w.name, URL: w.base, Ready: w.Ready()}
	}
	return out
}

// Coordinator returns the rollout coordinator, for callers that drive
// rollouts directly (the artifact watcher in cmd/fhc does).
func (rt *Router) Coordinator() *Coordinator { return rt.coord }

// Handler returns the routed handler; mount it in an http.Server.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the health prober and any artifact watcher. In-flight
// forwards finish on their own contexts; the workers are untouched.
func (rt *Router) Close() {
	rt.member.stop()
	rt.coord.stopWatcher()
}
