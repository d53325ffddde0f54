package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/httpserve"
	"repro/internal/serve"
)

// Predeclared error bodies and errors so the forwarding path never
// constructs them per request.
var (
	errNoReadyWorkers  = errors.New("cluster: no ready workers")
	errAllShardsFailed = errors.New("cluster: all shards failed")

	jsonContentType     = []string{"application/json"}
	noReadyWorkersJSON  = []byte("{\"error\":\"no ready workers\"}\n")
	allShardsFailedJSON = []byte("{\"error\":\"all shards failed\"}\n")
	methodJSON          = []byte("{\"error\":\"method not allowed\"}\n")
	tooLargeJSON        = []byte("{\"error\":\"request body exceeds router limit\"}\n")
	badBodyJSON         = []byte("{\"error\":\"bad request body\"}\n")
)

const octetStream = "application/octet-stream"

// The worker routes the router forwards to.
const (
	classifyPath = "/v1/classify"
	batchPath    = "/v1/classify/batch"
)

// shardHeader names the worker that answered, for tests and debugging.
const shardHeader = "Fhc-Shard"

func (rt *Router) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc(classifyPath, rt.routed(classifyPath, rt.classify))
	mux.HandleFunc(batchPath, rt.routed(batchPath, rt.batch))
	mux.HandleFunc("/v1/model/swap", rt.handleSwap)
	mux.HandleFunc("/v1/cluster/status", rt.handleStatus)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/readyz", rt.handleReadyz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.mux = mux
}

// writeStatic emits a predeclared JSON error body.
func writeStatic(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// hashB64 computes the engine cache key of a base64-encoded binary by
// streaming it through a decoder — the key the owning shard will
// compute, without materialising the binary on the router.
func hashB64(s string) (key serve.Key, ok bool) {
	h := sha256.New()
	dec := base64.NewDecoder(base64.StdEncoding, strings.NewReader(s))
	if _, err := io.Copy(h, dec); err != nil {
		return key, false
	}
	h.Sum(key[:0])
	return key, true
}

// pointForItem resolves one JSON classify request to its ring point.
// Requests carrying the binary (or its hash) route by the engine cache
// key, exactly as the owning shard will compute it; requests the
// workers will reject (corrupt base64, no content) still route — to a
// deterministic shard — so every protocol error is produced by a
// worker, with the worker's canonical error text, never synthesised by
// the router.
func (rt *Router) pointForItem(it *httpserve.ClassifyRequest) uint64 {
	if it.SHA256 != "" {
		var key serve.Key
		if len(it.SHA256) == 2*len(key) {
			if _, err := hex.Decode(key[:], []byte(it.SHA256)); err == nil {
				return pointOf(key)
			}
		}
		return fnv64a(it.SHA256)
	}
	if it.BinaryB64 != "" {
		if key, ok := hashB64(it.BinaryB64); ok {
			return pointOf(key)
		}
		return fnv64a(it.BinaryB64)
	}
	if it.Path != "" {
		return fnv64a(it.Path)
	}
	return fnv64a(it.Exe)
}

// pointForBody resolves a /v1/classify body to its ring point.
//
// fhc:hotpath pointForBody runs once per routed classify request; the
// octet-stream and hash-first legs stay off the JSON decoder entirely.
func (rt *Router) pointForBody(contentType string, body []byte) uint64 {
	if contentType == octetStream || strings.HasPrefix(contentType, octetStream+";") {
		sum := sha256.Sum256(body)
		return pointOf(sum)
	}
	if key, _, ok := httpserve.ParseHashFirst(body); ok {
		return pointOf(key)
	}
	var req httpserve.ClassifyRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return fnv64a(body)
	}
	return rt.pointForItem(&req)
}

// reply is one attempt's outcome. A reply only counts once its whole
// body is buffered: a connection torn down mid-body is a failed attempt,
// retried on the next shard, never a truncated answer.
type reply struct {
	status int
	header http.Header
	body   []byte
	shard  *Worker // the candidate that answered
	err    error
}

// send is the router's one way to reach the shards: it POSTs body to
// path on the candidates and returns the first complete reply, whatever
// its status. cands[0] is the key's owner; later candidates are retry
// and hedge targets in ring order. A failed attempt (a transport error
// or a torn body) counts as a shard error, kicks the shard's health
// probe and relaunches on the next candidate at once. When hedge > 0, a
// reply slower than hedge races one, and only one, duplicate against
// the next candidate. RequestTimeout bounds the whole call, and the
// losers are cancelled when it returns. send fails with
// errAllShardsFailed once every candidate has failed; cands must not be
// empty.
//
// fhc:hotpath send runs once per routed classify request and per shard
// of a routed batch.
func (rt *Router) send(ctx context.Context, cands []*Worker, path, contentType string, body []byte, hedge time.Duration) (reply, error) {
	var cancel context.CancelFunc
	if rt.opt.RequestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, rt.opt.RequestTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	results := make(chan reply, len(cands))
	launched := 0
	launch := func() {
		wk := cands[launched]
		launched++
		wk.requests.Inc()
		// The attempt body stays inline: as a separate call its frame
		// made each attempt goroutine grow its stack once more, about a
		// tenth of BenchmarkRouterForward's time.
		go func() {
			br := new(bytes.Reader)
			br.Reset(body)
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, wk.base+path, br)
			if err != nil {
				results <- reply{shard: wk, err: err}
				return
			}
			if contentType != "" {
				req.Header["Content-Type"] = []string{contentType}
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				results <- reply{shard: wk, err: err}
				return
			}
			// Buffer the whole reply before reporting it. The workers
			// are ours and their replies are small JSON, so no read cap.
			rbody, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				results <- reply{shard: wk, err: err}
				return
			}
			results <- reply{status: resp.StatusCode, header: resp.Header, body: rbody, shard: wk}
		}()
	}
	launch()

	var hedgeC <-chan time.Time
	if hedge > 0 && len(cands) > 1 {
		t := time.NewTimer(hedge)
		defer t.Stop()
		hedgeC = t.C
	}

	var hedged *Worker
	pending := 1
	for {
		select {
		case <-hedgeC:
			hedgeC = nil // at most one hedge per request
			if launched < len(cands) {
				hedged = cands[launched]
				rt.hedgesFired.Add(1)
				launch()
				pending++
			}
		case res := <-results:
			pending--
			if res.err == nil {
				if res.shard == hedged {
					rt.hedgeWins.Add(1)
				}
				return res, nil
			}
			res.shard.errs.Inc()
			rt.member.kick(res.shard)
			if launched < len(cands) {
				rt.retries.Add(1)
				launch()
				pending++
			} else if pending == 0 {
				return reply{}, errAllShardsFailed
			}
		}
	}
}

// forward sends body to the shards owning point, with the configured
// hedge, and writes the first complete reply to w verbatim, plus a
// Fhc-Shard header naming the shard. Returns the status code written.
//
// fhc:hotpath forward runs once per routed classify request.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, point uint64, path, contentType string, body []byte) int {
	var cbuf [maxWorkers]*Worker
	cands := rt.ring.candidates(point, cbuf[:0], rt.opt.MaxAttempts)
	if len(cands) == 0 {
		rt.unroutable.Add(1)
		writeStatic(w, http.StatusServiceUnavailable, noReadyWorkersJSON)
		return http.StatusServiceUnavailable
	}
	res, err := rt.send(r.Context(), cands, path, contentType, body, rt.opt.HedgeAfter)
	if err != nil {
		writeStatic(w, http.StatusBadGateway, allShardsFailedJSON)
		return http.StatusBadGateway
	}
	hdr := w.Header()
	for k, v := range res.header {
		hdr[k] = v
	}
	hdr[shardHeader] = []string{res.shard.name}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
	return res.status
}

// ----- handlers ---------------------------------------------------------

// routed wraps a forwarding handler with the preamble and the
// accounting classify and batch share: it refuses a non-POST, buffers
// the body up to MaxBodyBytes (answering 405, 400 or 413 itself), hands
// an accepted body to h, and records the request's latency and status
// under route.
func (rt *Router) routed(route string, h func(w http.ResponseWriter, r *http.Request, body []byte) int) http.HandlerFunc {
	lat := rt.latency.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code := rt.readPost(w, r, h)
		lat.Observe(time.Since(start).Seconds())
		rt.responses.With(route, strconv.Itoa(code)).Inc()
	}
}

// readPost is routed's preamble. Returns the status code written.
func (rt *Router) readPost(w http.ResponseWriter, r *http.Request, h func(http.ResponseWriter, *http.Request, []byte) int) int {
	if r.Method != http.MethodPost {
		writeStatic(w, http.StatusMethodNotAllowed, methodJSON)
		return http.StatusMethodNotAllowed
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.opt.MaxBodyBytes+1))
	if err != nil {
		writeStatic(w, http.StatusBadRequest, badBodyJSON)
		return http.StatusBadRequest
	}
	if int64(len(body)) > rt.opt.MaxBodyBytes {
		writeStatic(w, http.StatusRequestEntityTooLarge, tooLargeJSON)
		return http.StatusRequestEntityTooLarge
	}
	return h(w, r, body)
}

// classify routes one /v1/classify request to its owning shard.
//
// fhc:hotpath classify runs once per routed classify request.
func (rt *Router) classify(w http.ResponseWriter, r *http.Request, body []byte) int {
	ct := r.Header.Get("Content-Type")
	path := classifyPath
	if rq := r.URL.RawQuery; rq != "" {
		path += "?" + rq
	}
	return rt.forward(w, r, rt.pointForBody(ct, body), path, ct, body)
}

// batch splits a /v1/classify/batch request per item, scatters each
// item to the shard owning its cache key, runs the per-shard
// sub-batches concurrently, and reassembles the results in request
// order. Per-item isolation holds across the split: a corrupt item, an
// unroutable item or a dead shard surfaces as that item's Error field,
// never as a batch-level failure.
func (rt *Router) batch(w http.ResponseWriter, r *http.Request, body []byte) int {
	var breq httpserve.BatchRequest
	if err := json.Unmarshal(body, &breq); err != nil {
		// Undecodable batch: forward whole to a deterministic shard so
		// the worker's decoder produces the canonical error.
		return rt.forward(w, r, fnv64a(body), batchPath, "application/json", body)
	}

	results := make([]httpserve.ClassifyResponse, len(breq.Samples))
	groups := map[*Worker][]int{}
	var order []*Worker
	for i := range breq.Samples {
		it := &breq.Samples[i]
		point := rt.pointForItem(it)
		var cbuf [maxWorkers]*Worker
		cands := rt.ring.candidates(point, cbuf[:0], 1)
		if len(cands) == 0 {
			rt.unroutable.Add(1)
			results[i] = httpserve.ClassifyResponse{Exe: it.Exe, Error: "no ready workers"}
			continue
		}
		wk := cands[0]
		if _, ok := groups[wk]; !ok {
			order = append(order, wk)
		}
		groups[wk] = append(groups[wk], i)
	}

	var wg sync.WaitGroup
	for _, wk := range order {
		idxs := groups[wk]
		wg.Add(1)
		go func(wk *Worker, idxs []int) {
			defer wg.Done()
			rt.batchShard(r.Context(), wk, &breq, idxs, results)
		}(wk, idxs)
	}
	wg.Wait()

	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	_ = enc.Encode(httpserve.BatchResponse{Results: results})
	return http.StatusOK
}

// batchShard sends one shard's share of a batch and scatters the
// per-item results back by original index. wk is the owner; if its
// reply fails or tears, the sub-request retries on the next shards on
// the ring, with no hedge (a hedge would duplicate the whole
// sub-batch), and only if every shard fails do the items get error
// rows.
func (rt *Router) batchShard(ctx context.Context, wk *Worker, breq *httpserve.BatchRequest, idxs []int, results []httpserve.ClassifyResponse) {
	sub := httpserve.BatchRequest{Samples: make([]httpserve.ClassifyRequest, len(idxs))}
	for j, i := range idxs {
		sub.Samples[j] = breq.Samples[i]
	}
	payload, err := json.Marshal(sub)
	if err != nil {
		fillErrors(breq, idxs, results, "encode: "+err.Error())
		return
	}
	// Retry candidates: the owner first (its "#0" vnode point resolves
	// back to it while it is ready), then ring successors. If the owner
	// was ejected after grouping, candidates starts at its successor —
	// exactly where those keys now live.
	var cbuf [maxWorkers]*Worker
	cands := rt.ring.candidates(vnodePoint(wk.name, 0), cbuf[:0], rt.opt.MaxAttempts)
	if len(cands) == 0 {
		cands = append(cbuf[:0], wk) // whole fleet ejected; try the owner anyway
	}
	res, err := rt.send(ctx, cands, batchPath, "application/json", payload, 0)
	if err != nil {
		fillErrors(breq, idxs, results, "shard unavailable")
		return
	}
	if res.status != http.StatusOK {
		fillErrors(breq, idxs, results, "shard answered "+strconv.Itoa(res.status))
		return
	}
	var bresp httpserve.BatchResponse
	if err := json.Unmarshal(res.body, &bresp); err != nil || len(bresp.Results) != len(idxs) {
		fillErrors(breq, idxs, results, "shard reply malformed")
		return
	}
	for j, i := range idxs {
		results[i] = bresp.Results[j]
	}
}

// fillErrors writes one error row per affected batch item.
func fillErrors(breq *httpserve.BatchRequest, idxs []int, results []httpserve.ClassifyResponse, msg string) {
	for _, i := range idxs {
		results[i] = httpserve.ClassifyResponse{Exe: breq.Samples[i].Exe, Error: msg}
	}
}

func (rt *Router) handleSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeStatic(w, http.StatusMethodNotAllowed, methodJSON)
		return
	}
	var req httpserve.SwapRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil || req.Path == "" {
		writeStatic(w, http.StatusBadRequest, badBodyJSON)
		return
	}
	status, err := rt.coord.Rollout(req.Path)
	switch {
	case errors.Is(err, ErrRolloutBusy), errors.Is(err, ErrNoIncumbent):
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
	case err != nil:
		// Failed rollout: the status carries the stage reached and the
		// rollback outcome.
		writeJSON(w, http.StatusUnprocessableEntity, status)
	default:
		writeJSON(w, http.StatusOK, status)
	}
}

// clusterStatus is the /v1/cluster/status document.
type clusterStatus struct {
	Workers []WorkerState `json:"workers"`
	Rollout RolloutStatus `json:"rollout"`
	Stats   Stats         `json:"stats"`
}

func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeStatic(w, http.StatusMethodNotAllowed, methodJSON)
		return
	}
	writeJSON(w, http.StatusOK, clusterStatus{
		Workers: rt.WorkerStates(),
		Rollout: rt.coord.Status(),
		Stats:   rt.Stats(),
	})
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// handleReadyz reports ready while at least one worker is admitted:
// the router can still answer every key (all keys fall to the live
// shards), just without the usual affinity spread.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	for _, wk := range rt.workers {
		if wk.Ready() {
			w.WriteHeader(http.StatusOK)
			_, _ = io.WriteString(w, "ok\n")
			return
		}
	}
	writeStatic(w, http.StatusServiceUnavailable, noReadyWorkersJSON)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeStatic(w, http.StatusMethodNotAllowed, methodJSON)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.opt.Registry.WritePrometheus(w)
}

// writeJSON renders v; the non-hot control surface shares it.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
