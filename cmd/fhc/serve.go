package main

// The serve subcommand runs the paper's Figure 1 workflow as an
// always-on service: job events arrive as JSON lines, each naming an
// executable by path or carrying its content inline; each is featurised
// in one streaming pass, the serving engine classifies behind an
// exact-hash prediction cache, and the monitor applies allocation
// policy. One prediction (plus findings) is emitted per event,
// as JSON lines, in input order.
//
// Event input, one JSON object per line:
//
//	{"job_id":"1","user":"alice","account":"bio-1","job_name":"run",
//	 "exe":"blastn","path":"/tmp/blastn"}
//	{"job_id":"2","user":"bob","exe":"a.out","binary_b64":"f0VMRg..."}
//
// A control line hot-swaps a retrained model with zero downtime — the
// stream keeps flowing, and no prediction cached under the old model is
// ever served again:
//
//	{"reload":"/models/fhc-2026-07.json"}
//
// Policy file (optional, -policy):
//
//	{"allowed_by_account":{"bio-1":["BLAST"]},"blocklist":["XMRig"]}
//
// The stream loop is a thin adapter over the classify service of
// internal/httpserve: it decodes each event, hands its source to
// Server.Collect, labels it through Server.Classify (via the monitor)
// and installs reloads with Server.Install, so the stream and the
// network surface share one engine, one prediction cache and one
// harvest/drift path. Each event is answered as soon as its line is
// read. With -http ADDR the same service is also put on the wire:
// classify, batch-classify, model-swap, health and Prometheus metrics
// endpoints. `-input none -http :8080` serves HTTP only and runs until
// SIGINT/SIGTERM; with a finite -input the process drains the HTTP
// listener gracefully once the stream ends. An event line over 64 MiB
// is answered with that line's error and the stream continues.
//
// With -retrain the service learns continuously (internal/retrain):
// confident predictions on either surface are harvested into a bounded
// class-balanced training store, a background cycle retrains on the
// configured trigger policy, and a candidate that meets-or-beats the
// incumbent's holdout macro-F1 is hot-swapped in with zero downtime and
// persisted under -retrain-artifacts. See OPERATIONS.md for the
// runbook.
//
// A model artifact that carries an open-set calibration changes the
// serving behaviour with zero extra configuration: every prediction on
// either surface gains a verdict (class, unknown or ambiguous), a
// population drift detector seeded from the calibration baseline
// watches the served verdict stream and exports fhc_drift_* metrics,
// and — with -retrain — a latched drift alarm kicks a retraining
// cycle. Uncalibrated artifacts serve exactly as before; the verdict
// field stays absent. See OPERATIONS.md, "Unknown verdicts and drift
// alarms".

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/httpserve"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/openset"
	"repro/internal/retrain"
	"repro/internal/serve"
)

func init() {
	extraCommands = append(extraCommands, command{
		"serve", "classify a stream of job events through the caching engine", cmdServe,
	})
}

// serveEvent is one JSON-lines job event. A line carrying Reload is a
// control event: the named model file is loaded and hot-swapped into
// the engine before the next line is read.
type serveEvent struct {
	JobID     string `json:"job_id"`
	User      string `json:"user"`
	Account   string `json:"account"`
	JobName   string `json:"job_name"`
	Exe       string `json:"exe"`
	Path      string `json:"path,omitempty"`
	BinaryB64 string `json:"binary_b64,omitempty"`
	Reload    string `json:"reload,omitempty"`
}

// serveResult is one JSON-lines prediction (or reload acknowledgement,
// distinguished by its "reloaded" field).
type serveResult struct {
	JobID      string         `json:"job_id"`
	Label      string         `json:"label,omitempty"`
	Class      string         `json:"class,omitempty"`
	Confidence float64        `json:"confidence,omitempty"`
	Verdict    string         `json:"verdict,omitempty"`
	Findings   []serveFinding `json:"findings,omitempty"`
	Reloaded   string         `json:"reloaded,omitempty"`
	ModelKind  string         `json:"model_kind,omitempty"`
	Error      string         `json:"error,omitempty"`
}

type serveFinding struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// servePolicy is the on-disk policy format.
type servePolicy struct {
	AllowedByAccount map[string][]string `json:"allowed_by_account"`
	Blocklist        []string            `json:"blocklist"`
}

// serveHTTPBound, when non-nil, observes the bound HTTP address and a
// shutdown trigger equivalent to SIGINT. Tests use it to drive the
// blocking HTTP mode without signals.
var serveHTTPBound func(addr string, shutdown func())

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	modelPath := fs.String("model", "", "model file (required)")
	policyPath := fs.String("policy", "", "JSON policy file (optional)")
	input := fs.String("input", "-", "event stream: a JSON-lines file, - for stdin, or none (HTTP only)")
	httpAddr := fs.String("http", "", "also serve the HTTP API on this address (e.g. :8080)")
	httpPaths := fs.Bool("http-paths", false, "allow HTTP classify requests naming server-local paths")
	httpModels := fs.String("http-models", "", "confine HTTP model-swap artifact paths to this directory (empty allows any)")
	httpSpill := fs.Int("http-spill", 0, "spill-buffer bound for streamed ingestion on both surfaces; binaries beyond it skip ELF structural features (0 = default)")
	cacheSize := fs.Int("cache", 0, "prediction-cache entries (0 = default 65536; negative disables the cache)")
	stats := fs.Bool("stats", false, "print engine, retrain and drift statistics to stderr at EOF")
	retrainOn := fs.Bool("retrain", false, "enable continuous learning: harvest labels, retrain in the background, auto-swap gated candidates")
	retrainEvery := fs.Int("retrain-every", 256, "retrain after this many newly harvested samples (negative disables the sample trigger)")
	retrainInterval := fs.Duration("retrain-interval", 0, "retrain on this wall-clock interval (0 disables)")
	retrainStore := fs.String("retrain-store", "", "training-store JSON-lines file, persisted across restarts (empty: memory only)")
	retrainCap := fs.Int("retrain-cap", 4096, "training-store sample cap; class-balanced eviction beyond it")
	retrainHoldout := fs.Float64("retrain-holdout", 0.2, "per-class fraction frozen as the promotion-gate holdout")
	retrainMargin := fs.Float64("retrain-margin", 0, "candidate macro-F1 may trail the incumbent by at most this and still promote")
	retrainConf := fs.Float64("retrain-confidence", 0.95, "minimum confidence for harvesting a self-labelled prediction")
	retrainArtifacts := fs.String("retrain-artifacts", "", "directory for promoted artifacts (model-TIMESTAMP.json + latest pointer)")
	retrainKeep := fs.Int("retrain-keep", 5, "promoted artifacts retained for rollback")
	retrainSeed := fs.Uint64("retrain-seed", 1, "training seed for retrained candidates")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return errors.New("-model is required")
	}
	if *input == "none" && *httpAddr == "" {
		return errors.New("-input none requires -http: nothing to serve")
	}

	clf, err := core.LoadFile(*modelPath)
	if err != nil {
		return err
	}

	var policy monitor.Policy
	if *policyPath != "" {
		raw, err := os.ReadFile(*policyPath)
		if err != nil {
			return err
		}
		var sp servePolicy
		if err := json.Unmarshal(raw, &sp); err != nil {
			return fmt.Errorf("policy %s: %w", *policyPath, err)
		}
		policy = monitor.Policy{AllowedByAccount: sp.AllowedByAccount, Blocklist: sp.Blocklist}
	}

	in := os.Stdin
	if *input != "-" && *input != "none" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	engine := serve.New(clf, serve.Options{CacheEntries: *cacheSize})
	defer engine.Close()
	reg := metrics.NewRegistry()

	// A calibrated artifact carries its own serving-population baseline,
	// so drift detection needs no flags: seed a detector from the
	// calibration and let every served verdict — stream or HTTP — feed
	// it. Uncalibrated models predict no verdicts, so a detector would
	// only ever see VerdictNone; skip it.
	var det *openset.Detector
	if cal := clf.Calibration(); cal != nil {
		det = openset.NewDetector(cal.Baseline, openset.DriftOptions{Registry: reg})
	}

	// Continuous learning shares the metrics registry, so /metrics
	// exposes the fhc_retrain_* series.
	var rt *retrain.Retrainer
	if *retrainOn {
		rt, err = retrain.New(engine, clf, retrain.Options{
			Store:           retrain.StoreOptions{Cap: *retrainCap, Path: *retrainStore},
			MinNewSamples:   *retrainEvery,
			Interval:        *retrainInterval,
			HoldoutFraction: *retrainHoldout,
			Margin:          *retrainMargin,
			MinConfidence:   *retrainConf,
			ArtifactDir:     *retrainArtifacts,
			KeepArtifacts:   *retrainKeep,
			Train:           core.Config{Model: clf.ModelKind(), Seed: *retrainSeed},
			Registry:        reg,
			Drift:           det,
		})
		if err != nil {
			return err
		}
		defer func() {
			if err := rt.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "fhc serve: retrain close: %v\n", err)
			}
		}()
	}

	// One classify service backs both surfaces: the stream loop below is
	// a thin adapter over it, and -http also puts it on the wire. Every
	// served verdict is harvested and drift-observed by the same code, a
	// drift alarm kicks the retrainer, and a binary seen on either
	// surface is answered from the same prediction cache.
	hs := httpserve.New(engine, httpserve.Options{
		AllowPaths:    *httpPaths,
		ModelDir:      *httpModels,
		MaxSpillBytes: *httpSpill,
		Retrainer:     rt,
		Registry:      reg,
		Drift:         det,
	})
	mon := monitor.New(hs, policy)

	var httpErr chan error
	stop := make(chan struct{})
	var stopOnce sync.Once
	requestStop := func() { stopOnce.Do(func() { close(stop) }) }
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		httpErr = make(chan error, 1)
		go func() { httpErr <- hs.Serve(ln) }()
		fmt.Fprintf(os.Stderr, "fhc serve: HTTP API on http://%s\n", ln.Addr())
		if serveHTTPBound != nil {
			serveHTTPBound(ln.Addr().String(), requestStop)
		}
	}

	if *input != "none" {
		if err := runStream(in, os.Stdout, hs, mon); err != nil {
			return err
		}
	} else {
		// HTTP-only mode: block until a shutdown signal (or the test
		// hook's trigger, or a listener failure).
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "fhc serve: %v — draining\n", s)
		case <-stop:
		case err := <-httpErr:
			signal.Stop(sig)
			return err // listener died before any shutdown request
		}
		signal.Stop(sig)
	}

	// Graceful HTTP drain: stop advertising readiness, finish in-flight
	// requests (their engine calls included), then release the port.
	if httpErr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-httpErr; err != nil && err != http.ErrServerClosed {
			return err
		}
	}

	if *stats {
		es := engine.Stats()
		fmt.Fprintf(os.Stderr,
			"engine: %d hits, %d misses, %d coalesced, %d evicted, %d swaps, %d cached\n",
			es.Hits, es.Misses, es.Coalesced, es.Evicted, es.Swaps, es.CacheEntries)
		if rt != nil {
			rs := rt.Stats()
			fmt.Fprintf(os.Stderr,
				"retrain: %d runs (%d promoted, %d rejected, %d failed), %d harvested, store %d samples over %d classes\n",
				rs.Runs, rs.Promotions, rs.Rejections, rs.Failures, rs.Harvested, rs.StoreSize, len(rs.StorePerClass))
		}
		if det != nil {
			ds := det.State()
			fmt.Fprintf(os.Stderr,
				"drift: %d observations, %d alarms (latched: %v), window %d, unknown rate %.3f vs baseline %.3f\n",
				ds.Observations, ds.Alarms, ds.Alarmed, ds.WindowSize, ds.WindowUnknownRate, ds.BaselineUnknownRate)
		}
	}
	return nil
}

// runStream answers each event line of in on out as soon as the line
// is read, in one write: the scheduler prolog that submitted it may be
// waiting on the label. A line's failure, an oversized line or a panic
// while answering it included, is that line's error result; the loop
// goes on to the next line.
func runStream(in io.Reader, out io.Writer, hs *httpserve.Server, mon *monitor.Monitor) error {
	enc := json.NewEncoder(out)
	lines := bufio.NewReaderSize(in, 1<<20)
	for lineNo := 1; ; lineNo++ {
		line, err := readEventLine(lines, maxEventLine)
		var res serveResult
		switch {
		case err == io.EOF:
			return nil
		case err == errEventLineTooLong:
			// Answered below as this line's error.
		case err != nil:
			return err
		case len(line) == 0:
			continue
		default:
			res, err = serveLine(hs, mon, line)
		}
		if err != nil {
			res.Error = fmt.Sprintf("line %d: %v", lineNo, err)
		}
		if err := enc.Encode(&res); err != nil {
			return err
		}
	}
}

// errInternal answers an event line whose handling panicked; the panic
// itself is logged with its stack.
var errInternal = errors.New("internal error")

// serveLine answers one non-empty event line: a job event is collected
// and observed through the monitor, a control line installs its model.
// A non-nil error is the line's own failure; the result still carries
// whatever identifies the line (its job ID or the reload path). A panic
// is logged with its stack and becomes errInternal, so one bad event
// cannot end the stream.
func serveLine(hs *httpserve.Server, mon *monitor.Monitor, line []byte) (res serveResult, err error) {
	var ev serveEvent
	defer func() {
		if p := recover(); p != nil {
			log.Printf("fhc serve: panic answering an event: %v\n%s", p, debug.Stack())
			res, err = serveResult{JobID: ev.JobID}, errInternal
		}
	}()
	if err := json.Unmarshal(line, &ev); err != nil {
		return serveResult{JobID: ev.JobID}, err
	}
	// A line that decodes to an entirely empty event is an unknown
	// control object — a mistyped verb like {"relaod":...} or an
	// unsupported one like {"shutdown":true}. Re-decode strictly to name
	// the offending field instead of letting the line surface as a
	// baffling "neither path nor binary_b64" featurisation error. Job
	// events keep the lenient decode, so producers may add extra fields
	// (timestamps, priorities) freely.
	if ev == (serveEvent{}) {
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		err := dec.Decode(&serveEvent{})
		if err == nil {
			err = errors.New("event is empty")
		}
		return serveResult{}, fmt.Errorf("unknown control object: %w", err)
	}
	if ev.Reload != "" {
		// Control line: hot-swap the model. A line mixing control and job
		// fields is a producer bug — rejecting it beats silently dropping
		// the job's prediction.
		if ev.JobID != "" || ev.Path != "" || ev.BinaryB64 != "" || ev.Exe != "" ||
			ev.User != "" || ev.Account != "" || ev.JobName != "" {
			return serveResult{JobID: ev.JobID}, errors.New("reload control line carries job fields")
		}
		next, err := core.LoadFile(ev.Reload)
		if err != nil {
			// The previous model keeps serving; the stream continues.
			return serveResult{Reloaded: ev.Reload}, err
		}
		hs.Install(next)
		return serveResult{Reloaded: ev.Reload, ModelKind: next.ModelKind()}, nil
	}
	// The operator's own event stream may name any local path.
	req := httpserve.ClassifyRequest{Exe: ev.Exe, Path: ev.Path, BinaryB64: ev.BinaryB64}
	sample, _, err := hs.Collect(&req, true)
	if err != nil {
		return serveResult{JobID: ev.JobID}, err
	}
	pred, findings := mon.Observe(monitor.Event{
		JobID: ev.JobID, User: ev.User, Account: ev.Account,
		JobName: ev.JobName, Sample: sample,
	})
	res = serveResult{
		JobID: ev.JobID, Label: pred.Label, Class: pred.Class,
		Confidence: pred.Confidence, Verdict: string(pred.Verdict),
	}
	for _, f := range findings {
		res.Findings = append(res.Findings, serveFinding{Kind: f.Kind.String(), Message: f.Message})
	}
	return res, nil
}

// maxEventLine caps one JSON-lines event, inline base64 binaries
// included; a longer line is reported as that line's error and skipped.
const maxEventLine = 64 << 20

var errEventLineTooLong = fmt.Errorf("event line exceeds the %d-byte limit", maxEventLine)

// readEventLine returns the next line of r without its line ending. A
// line whose payload is longer than max bytes, whether it ends in
// "\n", "\r\n" or EOF, is read through to its end without being
// buffered and reported as errEventLineTooLong, so one oversized event
// costs at most max bytes plus its line ending and leaves the stream
// readable. It returns io.EOF once r is exhausted.
func readEventLine(r *bufio.Reader, max int) ([]byte, error) {
	var line []byte
	tooLong := false
	for {
		chunk, err := r.ReadSlice('\n')
		if !tooLong {
			if len(line)+len(chunk) > max+2 { // +2: a "\r\n" ending
				tooLong, line = true, nil
			} else {
				line = append(line, chunk...)
			}
		}
		switch {
		case err == bufio.ErrBufferFull:
			continue
		case err == io.EOF && (tooLong || len(line) > 0):
			// A final line without a newline still counts.
		case err != nil:
			return nil, err
		}
		line = bytes.TrimSuffix(line, []byte{'\n'})
		line = bytes.TrimSuffix(line, []byte{'\r'})
		if tooLong || len(line) > max {
			return nil, errEventLineTooLong
		}
		return line, nil
	}
}
