package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/extract"
	"repro/internal/httpserve"
	"repro/internal/serve"
	"repro/ssdeep"
)

// span is one timed call: its name, its interval in nanoseconds since the
// trace began, the span that made the call and the replayed request it
// belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the replay writes them out. A nil
// tracer records nothing, which is how the replay times itself untraced.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span and returns the span's ID.
func (t *tracer) do(name string, parent, req int, f func()) int {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
	return id
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children count
// once, and a child running past its parent counts only inside it.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// Replay sizes: how many bodies and probes the traced replay times, and
// how many back-to-back calls one span of a nanosecond-scale call covers.
// Each body costs about a third of a second of replay on 2 vCPUs, so 32
// of each kind keep a traced run under a minute.
const (
	traceCold     = 32
	traceFresh    = 32
	traceProbes   = 256
	traceOverhead = 16
	traceRollouts = 3
	tightLoop     = 64
	// repeats is how many times each call below the handler is timed per
	// body; its metrics take the fastest.
	repeats = 3
)

// replay times each layer's public functions in this process, spans
// around every call, and adds the per-layer metrics to res: 1 MiB cold
// bodies and prolog-sized never-seen bodies through the raw handler,
// through dataset.FromReader and the engine, and through each of the
// calls FromReader makes, run alone; hash-first probes through the
// parser, the engine, the handler and the router hop; and staged
// rollouts through the router.
func (b *bench) replay(res *result) error {
	tr := newTracer()
	root := tr.begin("replay", 0, 0)
	var clf *core.Classifier
	var err error
	loadID := tr.do("core.load", root, 0, func() { clf, err = core.LoadFile(b.art.model) })
	if err != nil {
		return err
	}
	eng := serve.New(clf, serve.Options{})
	defer eng.Close()
	uncached := serve.New(clf, serve.Options{CacheEntries: -1})
	defer uncached.Close()
	h := httpserve.New(eng, httpserve.Options{}).Handler()

	rp := &replayer{tr: tr, clf: clf, eng: eng, h: h, uncached: uncached}
	req := 0
	var cold, all []int
	for i := range traceCold {
		req++
		if err := rp.body(root, req, b.gen.body(kindTraceCold, uint64(i), mib)); err != nil {
			return err
		}
		cold, all = append(cold, req), append(all, req)
	}
	sizes := rand.New(rand.NewPCG(b.cfg.seed, streamTraceSizes))
	for i := range traceFresh {
		req++
		size := logUniform(sizes, freshMin, freshMax)
		if err := rp.body(root, req, b.gen.body(kindTraceFresh, uint64(i), size)); err != nil {
			return err
		}
		all = append(all, req)
	}

	// Tracing overhead: the ingestion calls of the first cold bodies,
	// traced and untraced back to back.
	var traced, untraced time.Duration
	for i := range traceOverhead {
		data := b.gen.body(kindTraceCold, uint64(i), mib).bytes()
		t0 := time.Now()
		if _, err := ingestParts(tr, root, -1, data); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := ingestParts(nil, 0, 0, data); err != nil {
			return err
		}
		traced, untraced = traced+t1.Sub(t0), untraced+time.Since(t1)
	}

	probes, err := rp.probesAndRollouts(root, &req, b)
	if err != nil {
		return err
	}

	tr.end(root)
	if err := os.MkdirAll(b.cfg.out, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{b.cfg.workload, b.cfg.seed, tr.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(b.cfg.out, "trace.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}

	a := newAggregate(tr.spans)
	m := res.metrics
	coldMiB := float64(traceCold)
	// The cold bodies are 1 MiB each, so a per-body time is a time per MiB.
	perMiB := func(name string) float64 {
		return a.median(cold, func(r int) float64 { return a.fastest(r, name) })
	}
	m["ssdeep.ctph_ms_per_mib"] = perMiB("ssdeep.ctph")
	m["extract.strings_ms_per_mib"] = perMiB("extract.strings")
	m["dataset.sha256_ms_per_mib"] = perMiB("dataset.sha256")
	m["dataset.ingest_ms_per_mib"] = a.median(cold, func(r int) float64 {
		parts := 0.0
		for _, name := range ingestStages {
			parts += a.fastest(r, name)
		}
		return a.fastest(r, "dataset.from_reader") - parts
	})
	m["collector.collect_ms_per_mib"] = a.total(cold, "collector.collect") / coldMiB
	m["httpserve.raw_handler_ms_per_mib"] = a.total(cold, "httpserve.raw_handler") / coldMiB
	m["extract.elf_ms"] = a.median(all, func(r int) float64 { return a.fastest(r, "extract.elf") })
	m["core.featurize_ms"] = a.median(all, func(r int) float64 { return a.fastest(r, "core.featurize") })
	m["model.predict_ms"] = a.median(all, func(r int) float64 {
		return a.fastest(r, "model.predict_proba") - a.fastest(r, "core.featurize")
	})
	m["core.calibrate_us"] = 1000 * a.median(all, func(r int) float64 { return a.fastest(r, "core.calibrate") })
	m["serve.miss_overhead_us"] = 1000 * a.median(all, func(r int) float64 {
		return a.fastest(r, "serve.classify") - a.fastest(r, "model.predict_proba") - a.fastest(r, "core.calibrate")
	})
	m["trace.stage_sum_ratio"] = a.median(cold, func(r int) float64 {
		return a.subtreeSelf(r, "stages") / a.total([]int{r}, "httpserve.raw_handler")
	})
	m["core.load_ms"] = ms(time.Duration(tr.spans[loadID-1].dur()))
	m["trace.overhead_pct"] = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
	m["serve.lookup_ns"] = 1e6 * a.total(probes, "serve.lookup") / float64(len(probes)*tightLoop)
	m["httpserve.parse_ns"] = 1e6 * a.total(probes, "httpserve.parse") / float64(len(probes)*tightLoop)
	m["httpserve.hash_first_handler_us"] = 1000 * a.median(probes, func(r int) float64 {
		return a.total([]int{r}, "httpserve.hash_first_handler")
	})
	m["cluster.hop_us"] = 1000 * a.median(probes, func(r int) float64 {
		return a.total([]int{r}, "cluster.route") - a.total([]int{r}, "httpserve.worker_handler")
	})
	var rolls []float64
	for _, s := range tr.spans {
		if s.Name == "cluster.rollout" {
			rolls = append(rolls, ms(time.Duration(s.dur())))
		}
	}
	m["cluster.rollout_ms"] = median(rolls)
	if r := m["trace.stage_sum_ratio"]; r < 0.9 || r > 1.1 {
		res.invalid = fmt.Sprintf("trace.stage_sum_ratio %.3f is outside 0.9-1.1: the stage split does not account for the handler's time", r)
	}
	res.notef("trace: %d spans written to %s", len(tr.spans), path)
	return nil
}

// replayer holds the in-process layers the replay calls.
type replayer struct {
	tr       *tracer
	clf      *core.Classifier
	eng      *serve.Engine // the caching engine behind h
	h        http.Handler  // an httpserve.Server over eng
	uncached *serve.Engine // an engine that never caches, for miss timing
}

// body replays one never-seen upload as request req: the real raw
// handler on the body, then the same work split in two under a "stages"
// span (dataset.FromReader and an uncached Engine.Classify), then the
// single-layer calls that split does not isolate.
func (rp *replayer) body(root, req int, bd body) error {
	tr := rp.tr
	data := bd.bytes()
	top := tr.begin("request", root, req)
	defer tr.end(top)

	rec := httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodPost, "/v1/classify?exe=x", bytes.NewReader(data))
	hr.Header.Set("Content-Type", "application/octet-stream")
	tr.do("httpserve.raw_handler", top, req, func() { rp.h.ServeHTTP(rec, hr) })
	if rec.Code != http.StatusOK {
		return fmt.Errorf("raw handler: %d %.200s", rec.Code, rec.Body.Bytes())
	}
	served, err := parseAnswer(rec.Body.Bytes())
	if err != nil {
		return err
	}

	stages := tr.begin("stages", top, req)
	s, err := fromReader(tr, stages, req, data)
	if err != nil {
		return err
	}
	var pred core.Prediction
	tr.do("serve.classify", stages, req, func() { pred = rp.uncached.Classify(&s) })
	tr.end(stages)

	var cs dataset.Sample
	tr.do("collector.collect", top, req, func() {
		cs, _, err = collector.New(collector.Options{}).CollectStream("", bytes.NewReader(data), 0)
	})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(cs, s) {
		return errors.New("dataset.FromReader's sample differs from the collector's")
	}
	// Each call takes milliseconds or less, so one timing is mostly
	// noise; the metrics take the fastest of a few. The stages span timed
	// the first FromReader and Classify.
	for range repeats - 1 {
		if _, err := fromReader(tr, top, req, data); err != nil {
			return err
		}
	}
	for range repeats {
		parts, err := ingestParts(tr, top, req, data)
		if err != nil {
			return err
		}
		if parts != s {
			return errors.New("the ingestion calls run alone compute a sample other than dataset.FromReader's")
		}
	}
	var proba [][]float64
	var direct core.Prediction
	for range repeats {
		tr.do("core.featurize", top, req, func() { rp.clf.Featurize(&s) })
		tr.do("model.predict_proba", top, req, func() { proba = rp.clf.PredictProbaBatch([]dataset.Sample{s}) })
		tr.do("core.calibrate", top, req, func() { direct = rp.clf.PredictFromProba(proba[0]) })
	}
	for range repeats - 1 {
		tr.do("serve.classify", top, req, func() { rp.uncached.Classify(&s) })
	}
	want := answer{Label: pred.Label, Class: pred.Class, Verdict: string(pred.Verdict), Confidence: pred.Confidence}
	if direct != pred || served != want {
		return fmt.Errorf("replayed layers disagree: handler %+v, engine %+v, classifier %+v", served, pred, direct)
	}
	return nil
}

// fromReader times dataset.FromReader on data, as the collector and the
// raw handler call it.
func fromReader(tr *tracer, parent, req int, data []byte) (dataset.Sample, error) {
	var s dataset.Sample
	var err error
	tr.do("dataset.from_reader", parent, req, func() {
		s, _, err = dataset.FromReader("", "", "", bytes.NewReader(data), 0)
	})
	return s, err
}

// ingestStages names the spans of ingestParts, one per layer call that
// dataset.FromReader makes. FromReader's time less theirs is its own: the
// chunk pump and the spill copy.
var ingestStages = []string{"dataset.sha256", "ssdeep.ctph", "extract.strings", "extract.elf"}

// ingestParts makes the public calls dataset.FromReader makes on data,
// one layer at a time, each whole layer in its own span: SHA-256, the
// file CTPH hasher, and the strings streamer feeding the strings CTPH
// hasher, each fed 64 KiB chunks as FromReader feeds them; then the ELF
// structural features. It returns the sample they compute, which must be
// FromReader's. With a nil tracer nothing is recorded.
func ingestParts(tr *tracer, parent, req int, data []byte) (dataset.Sample, error) {
	const chunk = 64 << 10
	chunks := func(write func([]byte)) {
		for off := 0; off < len(data); off += chunk {
			write(data[off:min(off+chunk, len(data))])
		}
	}
	var s dataset.Sample
	var err error
	tr.do("dataset.sha256", parent, req, func() {
		h := sha256.New()
		chunks(func(c []byte) { h.Write(c) })
		h.Sum(s.SHA256[:0])
	})
	tr.do("ssdeep.ctph", parent, req, func() {
		h := ssdeep.NewHasher()
		defer h.Release()
		chunks(func(c []byte) { h.Write(c) })
		s.Digests[dataset.FeatureFile], err = h.Sum()
	})
	if err != nil {
		return s, err
	}
	tr.do("extract.strings", parent, req, func() {
		h := ssdeep.NewHasher()
		defer h.Release()
		str := extract.NewStringStreamer(h, 0)
		chunks(func(c []byte) { str.Write(c) })
		str.Close()
		if str.Emitted() > 0 {
			s.Digests[dataset.FeatureStrings], err = h.Sum()
		}
	})
	if err != nil {
		return s, err
	}
	tr.do("extract.elf", parent, req, func() {
		var text []byte
		text, err = extract.SymbolsText(data)
		switch {
		case errors.Is(err, extract.ErrNoSymbolTable):
			s.Stripped, err = true, nil
		case err == nil && len(text) > 0:
			s.Digests[dataset.FeatureSymbols], err = ssdeep.HashBytes(text)
		}
		if err != nil {
			return
		}
		if text, nerr := extract.NeededText(data); nerr == nil && len(text) > 0 {
			if d, herr := ssdeep.HashBytes(text); herr == nil {
				s.Digests[dataset.FeatureNeeded] = d
			}
		}
	})
	return s, err
}

// current names the replayed request a worker-side span belongs to: the
// router forwards without the replay's span IDs, and the replay sends one
// request at a time.
type current struct{ req, parent atomic.Int64 }

// probesAndRollouts primes the handler's engine with the warm-probe working set,
// then replays each binary's hash-first probe through the parser, the
// engine lookup, the handler and a router over a loopback worker serving
// that handler, and finally a few staged rollouts through the router. It
// returns the request IDs of the probes.
func (rp *replayer) probesAndRollouts(root int, req *int, b *bench) ([]int, error) {
	tr := rp.tr
	n := min(traceProbes, len(b.gen.bases))
	probes := make([][]byte, n)
	for i := range n {
		nb := b.gen.native(i)
		probes[i] = probeBody(nb.sum())
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, "/v1/classify?exe="+nb.name, bytes.NewReader(nb.base))
		hr.Header.Set("Content-Type", "application/octet-stream")
		rp.h.ServeHTTP(rec, hr)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("priming the replay engine: %d %.200s", rec.Code, rec.Body.Bytes())
		}
	}

	var cur current
	worker := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/classify" {
			rp.h.ServeHTTP(w, r)
			return
		}
		tr.do("httpserve.worker_handler", int(cur.parent.Load()), int(cur.req.Load()), func() { rp.h.ServeHTTP(w, r) })
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: worker}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	rt, err := cluster.New([]cluster.WorkerSpec{{Name: "w0", URL: "http://" + ln.Addr().String()}},
		cluster.Options{IncumbentArtifact: b.art.model})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	router := rt.Handler()

	var ids []int
	for i := range n {
		*req++
		r := *req
		ids = append(ids, r)
		pb := probes[i]
		top := tr.begin("request", root, r)
		var key serve.Key
		var ok, hit bool
		tr.do("httpserve.parse", top, r, func() {
			for range tightLoop {
				key, _, ok = httpserve.ParseHashFirst(pb)
			}
		})
		tr.do("serve.lookup", top, r, func() {
			for range tightLoop {
				_, hit = rp.eng.Lookup(key)
			}
		})
		if !ok || !hit {
			return nil, fmt.Errorf("probe %d: parsed %v, cached %v", i, ok, hit)
		}
		rec := httptest.NewRecorder()
		tr.do("httpserve.hash_first_handler", top, r, func() { rp.h.ServeHTTP(rec, probeRequest(pb)) })
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("hash-first handler: %d %.200s", rec.Code, rec.Body.Bytes())
		}
		rec = httptest.NewRecorder()
		route := tr.begin("cluster.route", top, r)
		cur.req.Store(int64(r))
		cur.parent.Store(int64(route))
		router.ServeHTTP(rec, probeRequest(pb))
		tr.end(route)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("routed probe: %d %.200s", rec.Code, rec.Body.Bytes())
		}
		tr.end(top)
	}

	targets := []string{b.art.modelAlt, b.art.model}
	for i := range traceRollouts {
		body, err := json.Marshal(map[string]string{"path": targets[i%2]})
		if err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		tr.do("cluster.rollout", root, 0, func() {
			router.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/model/swap", bytes.NewReader(body)))
		})
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("rollout: %d %.200s", rec.Code, rec.Body.Bytes())
		}
	}
	return ids, nil
}

func probeRequest(pb []byte) *http.Request {
	hr := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(pb))
	hr.Header.Set("Content-Type", "application/json")
	return hr
}

// aggregate indexes a trace's spans by request for the metric formulas.
type aggregate struct {
	byReq map[int][]span
	self  map[int]int64
}

func newAggregate(spans []span) *aggregate {
	a := &aggregate{byReq: map[int][]span{}, self: selfTimes(spans)}
	for _, s := range spans {
		a.byReq[s.Req] = append(a.byReq[s.Req], s)
	}
	return a
}

// total sums the durations of the spans named name in reqs, in ms.
func (a *aggregate) total(reqs []int, name string) float64 {
	var ns int64
	for _, r := range reqs {
		for _, s := range a.byReq[r] {
			if s.Name == name {
				ns += s.dur()
			}
		}
	}
	return float64(ns) / 1e6
}

// fastest returns the shortest duration of request req's spans named
// name, in ms.
func (a *aggregate) fastest(req int, name string) float64 {
	best := int64(math.MaxInt64)
	for _, s := range a.byReq[req] {
		if s.Name == name {
			best = min(best, s.dur())
		}
	}
	return float64(best) / 1e6
}

// subtreeSelf sums the self times of request req's span named name and
// of every span below it, in ms.
func (a *aggregate) subtreeSelf(req int, name string) float64 {
	in := map[int]bool{}
	var ns int64
	for _, s := range a.byReq[req] { // spans are recorded parent first
		if s.Name == name || in[s.Parent] {
			in[s.ID] = true
			ns += a.self[s.ID]
		}
	}
	return float64(ns) / 1e6
}

// median applies f to each request and returns the median.
func (a *aggregate) median(reqs []int, f func(req int) float64) float64 {
	vals := make([]float64, 0, len(reqs))
	for _, r := range reqs {
		vals = append(vals, f(r))
	}
	return median(vals)
}
