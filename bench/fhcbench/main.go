// Command fhcbench is the end-to-end and per-layer benchmark of the fhc
// classify service. It builds fhc from the source tree it runs in,
// generates the paper-scale synthetic corpus and trains a calibrated
// artifact on it once per build, starts real `fhc serve` workers (behind
// `fhc route` where the workload calls for it), drives one workload over
// the wire from this process as two closed-loop clients, checks every
// verdict against an in-process oracle, and prints each metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"NAME":{"value":V,"unit":"U"},...}}
//
// With --trace 0 the metrics are the end-to-end set, whose times and
// rates are scaled to a reference host speed that a probe measures beside
// the load (hostref.go). With --trace 1 they are the per-layer set: the
// same numbers as measured, /metrics deltas and generator numbers from
// the same load run, plus an in-process replay that times each layer's
// public functions and writes its spans to OUT/trace.json.
//
// Run it through bench/run.sh from the repository root:
//
//	bash bench/run.sh --workload NAME --seed N [--seconds S] [--trace 0|1]
//
// NAME is cold-upload, warm-probe or prolog-mix;
// bench/README.md describes them and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names
// and units; TestSmoke holds the two together.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_jps", "jobs/s"},
	{"latency_p95_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"rss_peak_mib", "MiB"},
}

var perLayer = []metricDef{
	{"ssdeep.ctph_ms_per_mib", "ms/MiB"},
	{"extract.strings_ms_per_mib", "ms/MiB"},
	{"extract.elf_ms", "ms"},
	{"dataset.sha256_ms_per_mib", "ms/MiB"},
	{"dataset.ingest_ms_per_mib", "ms/MiB"},
	{"collector.collect_ms_per_mib", "ms/MiB"},
	{"collector.dedup_ratio", "ratio"},
	{"core.featurize_ms", "ms"},
	{"core.calibrate_us", "us"},
	{"core.load_ms", "ms"},
	{"model.predict_ms", "ms"},
	{"serve.lookup_ns", "ns"},
	{"serve.miss_overhead_us", "us"},
	{"serve.hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.batch_mean", "count"},
	{"httpserve.parse_ns", "ns"},
	{"httpserve.hash_first_handler_us", "us"},
	{"httpserve.raw_handler_ms_per_mib", "ms/MiB"},
	{"httpserve.classify_mean_ms", "ms"},
	{"httpserve.rejected", "count"},
	{"openset.unknown_ratio", "ratio"},
	{"cluster.hop_us", "us"},
	{"cluster.hedge_ratio", "ratio"},
	{"cluster.retry_ratio", "ratio"},
	{"cluster.shard_imbalance", "ratio"},
	{"cluster.rollout_ms", "ms"},
	{"metrics.scrape_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.cpu_ratio", "ratio"},
	{"loadgen.upload_ratio", "ratio"},
	{"trace.stage_sum_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"host.ref_ms", "ms"},
	{"raw.setup_s", "s"},
	{"raw.throughput_jps", "jobs/s"},
	{"raw.latency_p95_ms", "ms"},
	{"raw.cpu_ms_per_job", "ms"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"latency_p999_ms", "ms"},
	{"fail_ratio", "ratio"},
}

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	scale    string
	root     string // the source tree fhc is built from
	work     string // builds, corpus, artifacts
	out      string // trace.json
}

// bench is one run's state.
type bench struct {
	cfg    config
	w      workload
	fhc    string
	art    *artifacts
	gen    *gen
	oracle *oracle
	expect []answer // oracle answers for the working set
	probes [][]byte // hash-first requests for the working set
	load   *http.Client
	ctrl   *http.Client // set-up, priming and scrapes: never the load's connections
	fleet  *fleet

	// The next never-seen body of each stream, across warm-up and the
	// measured phase.
	coldNext, freshNext atomic.Int64
}

// result is what one run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	n         int       // jobs sent in the measured phase
	lat       []float64 // their sorted latencies, ms, failures at the client timeout
	metrics   map[string]float64
	notes     []string
	invalid   string // why the run's numbers cannot be trusted, if they cannot
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// guarded runs body so that no fleet process outlives it, on every exit
// path: a return or a panic in body runs the deferred killAll, SIGINT and
// SIGTERM run it from the handler, and if this process dies any other
// way — a panic on another goroutine, SIGKILL — the kernel kills each
// fleet process, which spawn starts with SIGKILL as its parent-death
// signal.
func guarded(body func() int) int {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(sig)
	}()
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "fhcbench: %v: stopping the fleet\n", s)
		killAll()
		os.Exit(130)
	}()
	defer killAll()
	return body()
}

// run is main with an exit code, so deferred clean-up runs before exit.
func run(args []string, stdout io.Writer) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fhcbench:", err)
		return 2
	}
	return guarded(func() int { return measure(cfg, stdout) })
}

// measure runs the benchmark and reports it.
func measure(cfg config, stdout io.Writer) int {
	res, err := benchmark(cfg, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fhcbench:", err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := report(stdout, cfg, res, defs); err != nil {
		fmt.Fprintln(os.Stderr, "fhcbench:", err)
		return 1
	}
	if !res.correct {
		fmt.Fprintln(os.Stderr, "fhcbench: the fleet gave wrong answers")
		return 1
	}
	return 0
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("fhcbench", flag.ContinueOnError)
	var cfg config
	var seconds, trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: cold-upload, warm-probe or prolog-mix")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of every input the fleet is sent")
	fs.IntVar(&seconds, "seconds", 25, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics, from the load run plus a traced in-process replay")
	fs.StringVar(&cfg.scale, "scale", "paper", "corpus scale: paper, medium or small")
	fs.StringVar(&cfg.root, "root", ".", "source tree to build fhc from")
	fs.StringVar(&cfg.work, "work", "", "directory for builds, corpus and artifacts (default ROOT/.bench_build)")
	fs.StringVar(&cfg.out, "out", "", "directory trace.json is written to (default WORK/out)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := lookupWorkload(cfg.workload); !ok {
		return cfg, fmt.Errorf("--workload %q: want one of cold-upload, warm-probe, prolog-mix", cfg.workload)
	}
	if seconds < 1 {
		return cfg, fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	cfg.seconds, cfg.trace = time.Duration(seconds)*time.Second, trace == 1
	var err error
	if cfg.root, err = filepath.Abs(cfg.root); err != nil {
		return cfg, err
	}
	if cfg.work == "" {
		cfg.work = filepath.Join(cfg.root, ".bench_build")
	}
	if cfg.work, err = filepath.Abs(cfg.work); err != nil {
		return cfg, err
	}
	if cfg.out == "" {
		cfg.out = filepath.Join(cfg.work, "out")
	}
	return cfg, nil
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// benchmark prepares the inputs, runs the workload and, when tracing,
// the in-process replay.
func benchmark(cfg config, stdout io.Writer) (*result, error) {
	w, _ := lookupWorkload(cfg.workload)
	b := &bench{cfg: cfg, w: w, load: newHTTPClient(conns), ctrl: newHTTPClient(prepWorkers)}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	var err error
	if b.fhc, err = buildFHC(cfg.root, cfg.work); err != nil {
		return nil, err
	}
	if b.art, err = prepare(b.fhc, cfg.work, cfg.scale); err != nil {
		return nil, err
	}
	bases, names, err := loadBases(b.art.tree, cfg.seed)
	if err != nil {
		return nil, err
	}
	if w.working > len(bases) {
		w.working = len(bases)
		b.w = w
	}
	b.gen = &gen{seed: cfg.seed, bases: bases, names: names, pool: newPool(cfg.seed, poolSize)}
	clf, err := core.LoadFile(b.art.model)
	if err != nil {
		return nil, err
	}
	b.oracle = &oracle{clf: clf}
	natives := make([]body, w.working)
	for i := range natives {
		natives[i] = b.gen.native(i)
		b.probes = append(b.probes, probeBody(natives[i].sum()))
	}
	if b.expect, err = b.oracle.expectAll(natives); err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, header(cfg))

	res, err := b.runWorkload()
	if err != nil {
		return nil, err
	}
	res.notef("core.train_s (corpus and artifact built once per fhc build): %.2f", b.art.trainSecs)
	if cfg.trace {
		if err := b.replay(res); err != nil {
			return nil, fmt.Errorf("trace replay: %w", err)
		}
	}
	return res, nil
}

// header names the run and the machine it ran on.
func header(cfg config) string {
	commit := "unknown"
	if _, err := os.Stat(filepath.Join(cfg.root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("fhcbench workload=%s seed=%d seconds=%d trace=%v scale=%s commit=%s go=%s gomaxprocs=%d nproc=%d cpu=%q",
		cfg.workload, cfg.seed, int(cfg.seconds.Seconds()), cfg.trace, cfg.scale, commit,
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu)
}

// report prints the notes and every metric of defs, then the JSON result
// line.
func report(w io.Writer, cfg config, res *result, defs []metricDef) error {
	for _, n := range res.notes {
		fmt.Fprintln(w, "note:", n)
	}
	if p := supportedPercentile(res.n); p > 0 {
		fmt.Fprintf(w, "latency: n=%d; highest percentile with >=10 samples beyond it: p%g = %.4f ms\n",
			res.n, p, percentile(res.lat, p))
	}
	if res.invalid != "" {
		fmt.Fprintln(w, "INVALID:", res.invalid)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-34s %14.6g %-7s (n=%d, workload %s)\n", d.name, v, d.unit, res.n, cfg.workload)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
