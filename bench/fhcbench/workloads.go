package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one traffic mix, run against a fresh fleet. bench/README.md
// gives the reason for each.
type workload struct {
	name    string
	workers int
	router  bool
	// working is how many corpus binaries are uploaded before timing;
	// the fleet then holds their verdicts.
	working int
}

var workloads = []workload{
	{name: "cold-upload", workers: 1},
	{name: "warm-probe", workers: 2, router: true, working: 256},
	{name: "prolog-mix", workers: 2, router: true, working: 512},
}

const (
	// conns is how many closed-loop clients carry the load, each on its
	// own connection: one per core of the 2-vCPU machines the benchmark
	// is sized for. With one client the cores idled between jobs, and
	// how fast the host woke them set the numbers: over eight seeds
	// warm-probe throughput spread 33% with one client and 9% with two,
	// prolog-mix throughput 17% and 8%, cold-upload throughput 14% and 9%.
	conns = 2
	// prepWorkers is how many goroutines the untimed preparation uses:
	// one per core.
	prepWorkers = 2
	// setupStarts is how many fleet starts setup_s is the median of.
	setupStarts = 3
)

// fleet is the set of processes one workload runs against.
type fleet struct {
	workers []*proc
	router  *proc
	entry   string // base URL the load is sent to
}

func (f *fleet) procs() []*proc {
	if f.router != nil {
		return append(slices.Clone(f.workers), f.router)
	}
	return f.workers
}

// stop stops the router, then the workers, and returns when all have
// exited.
func (f *fleet) stop() {
	if f.router != nil {
		f.router.stop()
	}
	var wg sync.WaitGroup
	for _, p := range f.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.stop()
		}()
	}
	wg.Wait()
}

// startFleet starts w's processes and returns once the fleet has answered
// real traffic: workers are spawned together and must report /readyz
// before the router starts (a router started first ejects workers still
// loading their artifact), the router must list every worker ready, each
// worker must answer one cold 1 MiB upload, and a routed upload and a
// routed hash-first probe must answer 200. Lazy index and forest builds
// therefore count as set-up.
func (b *bench) startFleet(w workload) (f *fleet, took time.Duration, err error) {
	start := time.Now()
	f = &fleet{}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	ps := make([]*proc, w.workers)
	errs := make([]error, w.workers)
	var wg sync.WaitGroup
	for i := range ps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps[i], errs[i] = spawn(fmt.Sprintf("w%d", i), b.fhc,
				"serve", "-model", b.art.model, "-input", "none", "-http", "127.0.0.1:0")
		}()
	}
	wg.Wait()
	for _, p := range ps {
		if p != nil {
			f.workers = append(f.workers, p)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return f, 0, err
	}
	for _, p := range f.workers {
		if err := waitFor(30*time.Second, p.name+" /readyz", func() error {
			_, err := get(b.ctrl, "http://"+p.addr+"/readyz")
			return err
		}); err != nil {
			return f, 0, err
		}
	}
	f.entry = "http://" + f.workers[0].addr
	if w.router {
		args := []string{"route", "-listen", "127.0.0.1:0"}
		for _, p := range f.workers {
			args = append(args, "-worker", p.name+"=http://"+p.addr)
		}
		if f.router, err = spawn("router", b.fhc, args...); err != nil {
			return f, 0, err
		}
		f.entry = "http://" + f.router.addr
		if err := waitFor(30*time.Second, "router cluster status", func() error {
			return clusterReady(b.ctrl, f.entry, len(f.workers))
		}); err != nil {
			return f, 0, err
		}
	}
	for i, p := range f.workers {
		if err := expect200(upload(b.ctrl, "http://"+p.addr, b.gen.body(kindSetup, uint64(i), mib))); err != nil {
			return f, 0, fmt.Errorf("set-up upload to %s: %w", p.name, err)
		}
	}
	if w.router {
		bd := b.gen.body(kindSetup, uint64(len(f.workers)), mib)
		if err := expect200(upload(b.ctrl, f.entry, bd)); err != nil {
			return f, 0, fmt.Errorf("set-up routed upload: %w", err)
		}
		if err := expect200(probe(b.ctrl, f.entry, probeBody(bd.sum()))); err != nil {
			return f, 0, fmt.Errorf("set-up routed probe: %w", err)
		}
	}
	return f, time.Since(start), nil
}

func expect200(status int, reply []byte, err error) error {
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, reply)
	}
	return nil
}

// clusterReady reports whether the router lists want workers, all ready.
func clusterReady(c *http.Client, router string, want int) error {
	raw, err := get(c, router+"/v1/cluster/status")
	if err != nil {
		return err
	}
	var st struct {
		Workers []struct {
			Ready bool `json:"ready"`
		} `json:"workers"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return err
	}
	ready := 0
	for _, wk := range st.Workers {
		if wk.Ready {
			ready++
		}
	}
	if ready != want {
		return fmt.Errorf("%d of %d workers ready", ready, want)
	}
	return nil
}

// conn is one client's state: its verifier, its random draws and the
// never-seen answers it sampled for the post-run check.
type conn struct {
	v    *verifier
	rng  *rand.Rand
	zipf *rand.Zipf // ranks of prolog-mix's working-set repeats
	pend []pending
}

// jobs returns the job maker of b's workload. It prepares a client's
// next job outside the timed interval: it draws the job, builds its body
// and, for a never-seen prolog body, hashes it for the probe. The
// function it returns is the job itself, which the load generator times.
func (b *bench) jobs(cs []*conn) func(client int) func() outcome {
	switch b.w.name {
	case "cold-upload":
		return func(client int) func() outcome {
			c, i := cs[client], uint64(b.coldNext.Add(1)-1)
			bd := b.gen.body(kindCold, i, mib)
			return func() outcome { return b.coldJob(c, i, bd) }
		}
	case "warm-probe":
		return func(client int) func() outcome {
			c := cs[client]
			i := c.rng.IntN(b.w.working)
			return func() outcome { return b.probeJob(c, i) }
		}
	default: // prolog-mix
		return func(client int) func() outcome {
			c := cs[client]
			if c.rng.Float64() >= freshShare {
				i := int(c.zipf.Uint64())
				return func() outcome { return b.knownJob(c, i) }
			}
			i := uint64(b.freshNext.Add(1) - 1)
			bd := b.gen.body(kindFresh, i, logUniform(c.rng, freshMin, freshMax))
			key := probeBody(bd.sum())
			return func() outcome { return b.freshJob(c, i, bd, key) }
		}
	}
}

// coldJob uploads never-seen 1 MiB body i.
func (b *bench) coldJob(c *conn, i uint64, bd body) outcome {
	status, reply, err := upload(b.load, b.fleet.entry, bd)
	o := outcome{upload: true}
	if o.fail = failOf(status, err); o.fail != failNone {
		return o
	}
	a, err := parseAnswer(reply)
	if err != nil {
		o.fail = failWrong
		return o
	}
	if i%sampleEvery == 0 {
		c.pend = append(c.pend, pending{kind: kindCold, index: i, size: bd.size(), got: a})
	}
	return o
}

// probeJob sends the hash-first probe for working-set binary i.
func (b *bench) probeJob(c *conn, i int) outcome {
	status, reply, err := probe(b.load, b.fleet.entry, b.probes[i])
	if f := failOf(status, err); f != failNone {
		return outcome{fail: f}
	}
	return outcome{fail: c.v.check(i, reply)}
}

// knownJob probes for working-set binary i and uploads it when the fleet
// asks for the body.
func (b *bench) knownJob(c *conn, i int) outcome {
	var o outcome
	status, reply, err := probe(b.load, b.fleet.entry, b.probes[i])
	if err == nil && isNeedsBody(status, reply) {
		o.upload = true
		status, reply, err = upload(b.load, b.fleet.entry, b.gen.native(i))
	}
	if o.fail = failOf(status, err); o.fail == failNone {
		o.fail = c.v.check(i, reply)
	}
	return o
}

// freshJob probes for never-seen body i, whose hash-first request is key,
// and uploads it.
func (b *bench) freshJob(c *conn, i uint64, bd body, key []byte) outcome {
	var o outcome
	status, reply, err := probe(b.load, b.fleet.entry, key)
	if err == nil && isNeedsBody(status, reply) {
		o.upload = true
		status, reply, err = upload(b.load, b.fleet.entry, bd)
	}
	if o.fail = failOf(status, err); o.fail != failNone {
		return o
	}
	a, err := parseAnswer(reply)
	if err != nil {
		o.fail = failWrong
		return o
	}
	// A probe hit on a never-seen body is a surprise worth checking.
	if i%sampleEvery == 0 || !o.upload {
		c.pend = append(c.pend, pending{kind: kindFresh, index: i, size: bd.size(), got: a})
	}
	return o
}

// prime uploads the working set through the fleet's entry and verifies
// every answer, so that timing starts with the fleet holding each
// verdict.
func (b *bench) prime() error {
	var next, wrong atomic.Int64
	errs := make([]error, prepWorkers)
	var wg sync.WaitGroup
	for w := range prepWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := newVerifier(b.expect)
			for {
				i := int(next.Add(1) - 1)
				if i >= b.w.working {
					return
				}
				status, reply, err := upload(b.ctrl, b.fleet.entry, b.gen.native(i))
				if err := expect200(status, reply, err); err != nil {
					errs[w] = fmt.Errorf("priming %s: %w", b.gen.names[i], err)
					return
				}
				if v.check(i, reply) != failNone {
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if n := wrong.Load(); n > 0 {
		return fmt.Errorf("priming: %d working-set answers differ from the oracle", n)
	}
	return nil
}

// snapshot is the fleet's state at a phase boundary.
type snapshot struct {
	workers  []exposition
	router   exposition
	fleetCPU time.Duration
	selfCPU  time.Duration
	scrapes  []float64 // client-timed GET /metrics, ms
}

// snap scrapes every fleet process and reads CPU times. At a phase start
// it scrapes first and reads CPU last, at a phase end the reverse, so the
// scrapes' own cost stays outside the CPU delta.
func (b *bench) snap(end bool) (snapshot, error) {
	var s snapshot
	readCPU := func() error {
		s.fleetCPU = 0
		for _, p := range b.fleet.procs() {
			t, err := procCPU(fmt.Sprint(p.pid()))
			if err != nil {
				return err
			}
			s.fleetCPU += t
		}
		var err error
		s.selfCPU, err = procCPU("self")
		return err
	}
	if end {
		if err := readCPU(); err != nil {
			return s, err
		}
	}
	scrape := func(p *proc) (exposition, error) {
		t0 := time.Now()
		raw, err := get(b.ctrl, "http://"+p.addr+"/metrics")
		s.scrapes = append(s.scrapes, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		return parseExposition(raw)
	}
	for _, p := range b.fleet.workers {
		x, err := scrape(p)
		if err != nil {
			return s, err
		}
		s.workers = append(s.workers, x)
	}
	if b.fleet.router != nil {
		x, err := scrape(b.fleet.router)
		if err != nil {
			return s, err
		}
		s.router = x
	}
	if !end {
		return s, readCPU()
	}
	return s, nil
}

// runWorkload runs b's workload once: set-up, priming, warm-up, the
// measured phase and the post-run checks.
func (b *bench) runWorkload() (*result, error) {
	res := &result{metrics: map[string]float64{}}
	probe := startHostProbe()
	defer probe.finish()
	var setups []float64
	for i := range setupStarts {
		f, took, err := b.startFleet(b.w)
		if err != nil {
			return nil, fmt.Errorf("fleet start %d: %w", i+1, err)
		}
		setups = append(setups, took.Seconds())
		if i < setupStarts-1 {
			f.stop()
		} else {
			b.fleet = f
		}
	}
	defer b.fleet.stop()
	setupEnd := probe.since()
	if b.w.working > 0 {
		if err := b.prime(); err != nil {
			return nil, err
		}
	}

	cs := make([]*conn, conns)
	for i := range cs {
		r := rand.New(rand.NewPCG(b.cfg.seed, streamClient<<8|uint64(i)))
		cs[i] = &conn{v: newVerifier(b.expect), rng: r}
		if b.w.working > 0 {
			cs[i].zipf = newZipf(r, b.w.working)
		}
	}
	jobs := b.jobs(cs)
	closedLoop(conns, min(2*time.Second, b.cfg.seconds/5), jobs)
	for _, c := range cs {
		c.pend = nil
	}

	before, err := b.snap(false)
	if err != nil {
		return nil, err
	}
	phaseStart := probe.since()
	recs := closedLoop(conns, b.cfg.seconds, jobs)
	phaseEnd := probe.since()
	after, err := b.snap(true)
	if err != nil {
		return nil, err
	}
	samples := probe.finish()
	refSetup, nSetup := meanTook(samples, 0, setupEnd)
	refPhase, nPhase := meanTook(samples, phaseStart, phaseEnd)
	if nSetup == 0 || nPhase == 0 {
		return nil, fmt.Errorf("host probe: %d samples in set-up, %d in the phase", nSetup, nPhase)
	}
	var hwm int64
	for _, p := range b.fleet.procs() {
		h, err := procHWM(fmt.Sprint(p.pid()))
		if err != nil {
			return nil, err
		}
		hwm = max(hwm, h)
	}
	ejections := 0.0
	if b.fleet.router != nil {
		ejections = after.router.sum("fhc_cluster_ejections_total") - before.router.sum("fhc_cluster_ejections_total")
	}
	b.fleet.stop()

	var pend []pending
	for _, c := range cs {
		pend = append(pend, c.pend...)
	}
	wrongLate, err := b.oracle.verifyPending(b.gen, pend)
	if err != nil {
		return nil, err
	}

	st := summarise(recs)
	if st.ok == 0 {
		return nil, fmt.Errorf("no job of %d succeeded: %v", st.n, st.fails)
	}
	res.n = st.n
	res.attempted = st.n
	res.failed = st.failed() + wrongLate
	res.correct = st.fails[failWrong]+wrongLate == 0
	res.lat = st.lat

	// The end-to-end times and rates are reported at the reference host
	// speed: set-up by the probe's speed during set-up, the rest by its
	// speed during the phase. The per-layer set keeps them as measured.
	m := res.metrics
	m["raw.setup_s"] = median(setups)
	m["raw.throughput_jps"] = float64(st.ok) / st.wall.Seconds()
	m["raw.latency_p95_ms"] = percentile(st.lat, 95)
	m["raw.cpu_ms_per_job"] = ms(after.fleetCPU-before.fleetCPU) / float64(st.ok)
	m["host.ref_ms"] = ms(refPhase)
	setupScale := float64(refNominal) / float64(refSetup)
	phaseScale := float64(refNominal) / float64(refPhase)
	m["setup_s"] = m["raw.setup_s"] * setupScale
	m["throughput_jps"] = m["raw.throughput_jps"] / phaseScale
	m["latency_p95_ms"] = m["raw.latency_p95_ms"] * phaseScale
	m["cpu_ms_per_job"] = m["raw.cpu_ms_per_job"] * phaseScale
	m["rss_peak_mib"] = float64(hwm) / mib

	layerMetrics(m, st, before, after)
	m["fail_ratio"] = ratio(float64(res.failed), float64(res.attempted))

	res.notef("setup_s samples: %v", setups)
	res.notef("host reference kernel: %.4f ms over %d samples in set-up, %.4f ms over %d in the phase (reference %.4f ms)",
		ms(refSetup), nSetup, ms(refPhase), nPhase, ms(refNominal))
	res.notef("unscaled: setup_s %.6g, throughput_jps %.6g, latency_p95_ms %.6g, cpu_ms_per_job %.6g",
		m["raw.setup_s"], m["raw.throughput_jps"], m["raw.latency_p95_ms"], m["raw.cpu_ms_per_job"])
	res.notef("jobs: %d attempted, %d verified, %d uploads (upload ratio %.4f); failures by kind %v; %d of %d sampled never-seen answers wrong",
		st.n, st.ok, st.uploads, m["loadgen.upload_ratio"], st.fails, wrongLate, len(pend))
	res.notef("fleet: %d workers, router %v; ejections during the phase: %v", len(b.fleet.workers), b.fleet.router != nil, ejections)
	res.notef("latency ms: p90 %.3f, p95 %.3f, p98 %.3f, p99 %.3f, p99.5 %.3f, max %.3f",
		percentile(st.lat, 90), percentile(st.lat, 95), percentile(st.lat, 98), percentile(st.lat, 99),
		percentile(st.lat, 99.5), percentile(st.lat, 100))
	rates := windowRates(recs, time.Second)
	q1, q2, q3 := quartiles(rates)
	res.notef("throughput per 1 s window: q1 %.1f, median %.1f, q3 %.1f jobs/s; in order %.0f", q1, q2, q3, rates)
	return res, nil
}

// layerMetrics derives the per-layer metrics the load run itself
// measures: scrape deltas over the measured phase and the generator's
// own numbers.
func layerMetrics(m map[string]float64, st phaseStats, before, after snapshot) {
	w0, w1 := before.workers, after.workers
	hits := delta(w0, w1, "fhc_engine_cache_hits_total")
	misses := delta(w0, w1, "fhc_engine_cache_misses_total")
	m["serve.hit_ratio"] = ratio(hits, hits+misses)
	m["serve.coalesced_ratio"] = ratio(delta(w0, w1, "fhc_engine_coalesced_total"), misses)
	m["serve.batch_mean"] = ratio(delta(w0, w1, "fhc_engine_batched_samples_total"), delta(w0, w1, "fhc_engine_batches_total"))
	m["collector.dedup_ratio"] = ratio(delta(w0, w1, "fhc_collector_cache_hits_total"), delta(w0, w1, "fhc_collector_seen_total"))
	m["httpserve.classify_mean_ms"] = 1000 * ratio(
		delta(w0, w1, "fhc_http_request_seconds_sum", "route", "/v1/classify"),
		delta(w0, w1, "fhc_http_request_seconds_count", "route", "/v1/classify"))
	m["httpserve.rejected"] = delta(w0, w1, "fhc_http_requests_total", "route", "/v1/classify", "code", "429")
	m["openset.unknown_ratio"] = ratio(
		delta(w0, w1, "fhc_openset_verdicts_total", "verdict", "unknown"),
		delta(w0, w1, "fhc_openset_verdicts_total"))

	// Balance is measured at the workers, so a single worker reads 1.
	var perShard []float64
	for i := range w1 {
		perShard = append(perShard, delta(w0[i:i+1], w1[i:i+1], "fhc_http_requests_total", "route", "/v1/classify"))
	}
	sum := 0.0
	for _, v := range perShard {
		sum += v
	}
	m["cluster.shard_imbalance"] = ratio(slices.Max(perShard), sum/float64(len(perShard)))
	if r0, r1 := before.router, after.router; r1 != nil {
		x0, x1 := []exposition{r0}, []exposition{r1}
		routed := delta(x0, x1, "fhc_cluster_responses_total", "route", "/v1/classify")
		m["cluster.hedge_ratio"] = ratio(delta(x0, x1, "fhc_cluster_hedges_total"), routed)
		m["cluster.retry_ratio"] = ratio(delta(x0, x1, "fhc_cluster_retries_total"), routed)
	} else {
		// Without a router nothing is hedged or retried.
		m["cluster.hedge_ratio"], m["cluster.retry_ratio"] = 0, 0
	}

	m["metrics.scrape_ms"] = median(append(before.scrapes, after.scrapes...))
	m["loadgen.lag_p99_ms"] = st.lagP99
	m["loadgen.cpu_ratio"] = ms(after.selfCPU-before.selfCPU) / ms(st.wall)
	m["loadgen.upload_ratio"] = ratio(float64(st.uploads), float64(st.n))
	m["latency_p50_ms"] = percentile(st.lat, 50)
	m["latency_p99_ms"] = percentile(st.lat, 99)
	m["latency_p999_ms"] = percentile(st.lat, 99.9)
}

// windowRates counts verified jobs per window of the phase, in jobs per
// second, over the windows that ended before the phase's last send.
func windowRates(recs []record, window time.Duration) []float64 {
	var last time.Duration
	for _, r := range recs {
		last = max(last, r.at)
	}
	counts := make([]float64, int(last/window))
	for _, r := range recs {
		if i := int((r.at + r.lat) / window); r.fail == failNone && i < len(counts) {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= window.Seconds()
	}
	return counts
}
