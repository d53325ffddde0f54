package main

// CLI tests drive the subcommand functions directly against temporary
// corpora, covering the full workflow the README documents.

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/synth"
)

// withStdout captures os.Stdout during fn.
func withStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

// makeTree writes a small labelled corpus and returns its directory and
// one binary path.
func makeTree(t *testing.T) (dir, binary string) {
	t.Helper()
	dir = t.TempDir()
	corpus, err := synth.Generate([]synth.ClassSpec{
		{Name: "AppOne", Samples: 6},
		{Name: "AppTwo", Samples: 6},
		{Name: "AppThree", Samples: 6},
	}, synth.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := corpus.WriteTree(dir); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, corpus.Samples[0].Path())
}

func TestCmdCorpusAndScan(t *testing.T) {
	dir := t.TempDir()
	out, err := withStdout(t, func() error {
		return cmdCorpus([]string{"-out", dir, "-scale", "small", "-seed", "3"})
	})
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}
	if !strings.Contains(out, "wrote") {
		t.Fatalf("corpus output: %q", out)
	}
	scanOut, err := withStdout(t, func() error {
		return cmdScan([]string{dir})
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(strings.Split(strings.TrimSpace(scanOut), "\n")) < 10 {
		t.Fatalf("scan produced too few lines:\n%s", scanOut)
	}
}

func TestCmdCorpusValidation(t *testing.T) {
	if err := cmdCorpus([]string{"-scale", "small"}); err == nil {
		t.Error("corpus without -out accepted")
	}
	if err := cmdCorpus([]string{"-out", t.TempDir(), "-scale", "gigantic"}); err == nil {
		t.Error("corpus with bogus scale accepted")
	}
}

func TestCmdTrainClassifyReport(t *testing.T) {
	dir, binary := makeTree(t)
	model := filepath.Join(t.TempDir(), "model.json")

	out, err := withStdout(t, func() error {
		return cmdTrain([]string{"-corpus", dir, "-model", model, "-threshold", "0.3", "-trees", "40"})
	})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	if !strings.Contains(out, "trained rf on") {
		t.Fatalf("train output: %q", out)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("model file missing: %v", err)
	}

	out, err = withStdout(t, func() error {
		return cmdClassify([]string{"-model", model, binary})
	})
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	if !strings.Contains(out, "AppOne") {
		t.Fatalf("classify output: %q", out)
	}

	out, err = withStdout(t, func() error {
		return cmdReport([]string{"-corpus", dir, "-model", model})
	})
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	for _, want := range []string{"micro avg", "AppTwo"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdTrainValidation(t *testing.T) {
	if err := cmdTrain([]string{"-model", "x"}); err == nil {
		t.Error("train without corpus accepted")
	}
	if err := cmdTrain([]string{"-corpus", t.TempDir(), "-model", filepath.Join(t.TempDir(), "m")}); err == nil {
		t.Error("train on empty corpus accepted")
	}
	if err := cmdTrain([]string{"-corpus", "a", "-samples", "b", "-model", "m"}); err == nil {
		t.Error("train with both -corpus and -samples accepted")
	}
	dir, _ := makeTree(t)
	if err := cmdTrain([]string{"-corpus", dir, "-model", filepath.Join(t.TempDir(), "m"),
		"-kind", "perceptron", "-threshold", "0.3"}); err == nil {
		t.Error("train with unregistered model kind accepted")
	}
	if err := cmdTrain([]string{"-corpus", dir, "-model", filepath.Join(t.TempDir(), "m"),
		"-threshold", "0.3", "-calibrate", "0.7"}); err == nil {
		t.Error("train with -calibrate >= 0.5 accepted")
	}
}

// TestCmdTrainCalibrate drives the production path for calibrated
// artifacts: train with -calibrate, confirm the calibration is
// persisted inside the model file, and confirm a model reloaded from
// that artifact serves verdicts.
func TestCmdTrainCalibrate(t *testing.T) {
	dir, binary := makeTree(t)
	model := filepath.Join(t.TempDir(), "model-cal.json")
	out, err := withStdout(t, func() error {
		return cmdTrain([]string{"-corpus", dir, "-model", model,
			"-threshold", "0.3", "-trees", "40", "-calibrate", "0.25"})
	})
	if err != nil {
		t.Fatalf("train -calibrate: %v", err)
	}
	if !strings.Contains(out, "calibrated for open-set abstention") {
		t.Fatalf("train output: %q", out)
	}
	clf, err := core.LoadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	cal := clf.Calibration()
	if cal == nil {
		t.Fatal("artifact carries no calibration")
	}
	raw, err := os.ReadFile(binary)
	if err != nil {
		t.Fatal(err)
	}
	sample, err := dataset.FromBinary("", "", "app", raw)
	if err != nil {
		t.Fatal(err)
	}
	if p := clf.Classify(&sample); p.Verdict == "" {
		t.Fatalf("reloaded calibrated model predicts no verdict: %+v", p)
	}
}

// TestCmdTrainAlternateKind drives the CLI model selection end to end:
// train a knn model, classify with it, and confirm the artifact is
// tagged with its kind.
func TestCmdTrainAlternateKind(t *testing.T) {
	dir, binary := makeTree(t)
	model := filepath.Join(t.TempDir(), "model-knn.json")
	out, err := withStdout(t, func() error {
		return cmdTrain([]string{"-corpus", dir, "-model", model, "-kind", "knn", "-threshold", "0.3"})
	})
	if err != nil {
		t.Fatalf("train -kind knn: %v", err)
	}
	if !strings.Contains(out, "trained knn on") {
		t.Fatalf("train output: %q", out)
	}
	raw, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"model_kind":"knn"`) {
		t.Fatal("artifact not tagged with its model kind")
	}
	out, err = withStdout(t, func() error {
		return cmdClassify([]string{"-model", model, binary})
	})
	if err != nil {
		t.Fatalf("classify with knn model: %v", err)
	}
	if !strings.Contains(out, "AppOne") {
		t.Fatalf("knn classify output: %q", out)
	}
}

func TestCmdScanJSONAndTrainFromSamples(t *testing.T) {
	dir, _ := makeTree(t)
	jsonPath := filepath.Join(t.TempDir(), "samples.jsonl")
	if _, err := withStdout(t, func() error {
		return cmdScan([]string{"-json", jsonPath, dir})
	}); err != nil {
		t.Fatalf("scan -json: %v", err)
	}
	if st, err := os.Stat(jsonPath); err != nil || st.Size() == 0 {
		t.Fatalf("feature file missing/empty: %v", err)
	}
	model := filepath.Join(t.TempDir(), "model.json")
	out, err := withStdout(t, func() error {
		return cmdTrain([]string{"-samples", jsonPath, "-model", model, "-threshold", "0.3", "-trees", "30"})
	})
	if err != nil {
		t.Fatalf("train -samples: %v", err)
	}
	if !strings.Contains(out, "trained rf on") {
		t.Fatalf("train output: %q", out)
	}
	// The cached-features model must classify like the tree-trained one.
	rep, err := withStdout(t, func() error {
		return cmdReport([]string{"-corpus", dir, "-model", model, "-format", "csv"})
	})
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if !strings.Contains(rep, `"micro avg"`) {
		t.Fatalf("csv report:\n%s", rep)
	}
}

func TestCmdClassifyValidation(t *testing.T) {
	if err := cmdClassify([]string{"-model", "/nonexistent/model"}); err == nil {
		t.Error("classify without binaries accepted")
	}
	if err := cmdClassify([]string{"-model", "/nonexistent/model", "some-binary"}); err == nil {
		t.Error("classify with missing model accepted")
	}
}

func TestCmdHashCompare(t *testing.T) {
	dir, binary := makeTree(t)
	out, err := withStdout(t, func() error { return cmdHash([]string{binary}) })
	if err != nil {
		t.Fatalf("hash: %v", err)
	}
	for _, want := range []string{"ssdeep-file", "ssdeep-symbols", "sha256"} {
		if !strings.Contains(out, want) {
			t.Fatalf("hash output missing %q:\n%s", want, out)
		}
	}
	// Compare the binary with a sibling.
	var other string
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && path != binary && other == "" {
			other = path
		}
		return err
	})
	if err != nil || other == "" {
		t.Fatalf("no sibling binary found: %v", err)
	}
	out, err = withStdout(t, func() error { return cmdCompare([]string{binary, other}) })
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	if !strings.Contains(out, "ssdeep-symbols") {
		t.Fatalf("compare output:\n%s", out)
	}
	if err := cmdCompare([]string{binary}); err == nil {
		t.Error("compare with one file accepted")
	}
	if err := cmdCompare([]string{"-distance", "bogus", binary, other}); err == nil {
		t.Error("compare with bogus distance accepted")
	}
}

func TestCmdViews(t *testing.T) {
	_, binary := makeTree(t)
	out, err := withStdout(t, func() error { return cmdNM([]string{binary}) })
	if err != nil {
		t.Fatalf("nm: %v", err)
	}
	if !strings.Contains(out, "T ") {
		t.Fatalf("nm output has no text symbols:\n%.300s", out)
	}
	out, err = withStdout(t, func() error { return cmdStrings([]string{binary}) })
	if err != nil {
		t.Fatalf("strings: %v", err)
	}
	if len(out) < 100 {
		t.Fatalf("strings output too short: %d bytes", len(out))
	}
	out, err = withStdout(t, func() error { return cmdLDD([]string{binary}) })
	if err != nil {
		t.Fatalf("ldd: %v", err)
	}
	if !strings.Contains(out, ".so") {
		t.Fatalf("ldd output: %q", out)
	}
}

func TestCmdDups(t *testing.T) {
	// Two classes sharing one genome: guaranteed cross-class duplicates.
	dir := t.TempDir()
	corpus, err := synth.Generate([]synth.ClassSpec{
		{Name: "ToolA", Genome: "shared", Samples: 4},
		{Name: "ToolB", Genome: "shared", Samples: 4, VersionOffset: 1},
		{Name: "Other", Samples: 4},
	}, synth.Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := corpus.WriteTree(dir); err != nil {
		t.Fatal(err)
	}
	out, err := withStdout(t, func() error {
		return cmdDups([]string{"-min", "50", dir})
	})
	if err != nil {
		t.Fatalf("dups: %v", err)
	}
	if !strings.Contains(out, "CROSS-CLASS") {
		t.Fatalf("dups did not find the shared-genome pair:\n%s", out)
	}
	if strings.Contains(out, "Other") {
		t.Fatalf("dups flagged the unrelated class:\n%s", out)
	}
	if err := cmdDups([]string{"-feature", "bogus", dir}); err == nil {
		t.Error("dups with bogus feature accepted")
	}
}

func TestCmdServe(t *testing.T) {
	dir, binary := makeTree(t)
	model := filepath.Join(t.TempDir(), "model.json")
	if _, err := withStdout(t, func() error {
		return cmdTrain([]string{"-corpus", dir, "-model", model, "-threshold", "0.3", "-trees", "40"})
	}); err != nil {
		t.Fatalf("train: %v", err)
	}

	policy := filepath.Join(t.TempDir(), "policy.json")
	if err := os.WriteFile(policy, []byte(`{"allowed_by_account":{"bio-1":["AppOne"]},"blocklist":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	events := filepath.Join(t.TempDir(), "events.jsonl")
	lines := []string{
		`{"job_id":"1","user":"alice","account":"bio-1","exe":"a","path":"` + binary + `"}`,
		`{not json`, // malformed line: error slot, stream continues
		// The same binary again: the same label, from the prediction cache.
		`{"job_id":"2","user":"alice","account":"bio-1","exe":"b","path":"` + binary + `"}`,
		`{"job_id":"3","user":"bob","exe":"c"}`, // no content: error slot
	}
	if err := os.WriteFile(events, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := withStdout(t, func() error {
		return cmdServe([]string{"-model", model, "-policy", policy, "-input", events})
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	got := strings.Split(strings.TrimSpace(out), "\n")
	if len(got) != len(lines) {
		t.Fatalf("serve emitted %d results for %d events:\n%s", len(got), len(lines), out)
	}
	if !strings.Contains(got[0], `"label":"AppOne"`) || !strings.Contains(got[0], `"job_id":"1"`) {
		t.Fatalf("first result: %s", got[0])
	}
	if !strings.Contains(got[1], `"error"`) || strings.Contains(got[1], `"label"`) {
		t.Fatalf("malformed line not reported as an error slot: %s", got[1])
	}
	if !strings.Contains(got[2], `"label":"AppOne"`) || !strings.Contains(got[2], `"job_id":"2"`) ||
		strings.Contains(got[2], `"cached"`) {
		t.Fatalf("duplicate submission: %s", got[2])
	}
	if !strings.Contains(got[3], `"error"`) || !strings.Contains(got[3], `"job_id":"3"`) {
		t.Fatalf("content-less event not reported in order: %s", got[3])
	}

	if err := cmdServe([]string{"-input", events}); err == nil {
		t.Error("serve without -model accepted")
	}
}

// TestCmdServeReload drives the zero-downtime reload control line: the
// stream swaps from an rf model to a knn model mid-flight, a bad reload
// is acknowledged as an error without stopping the stream, and events
// after each control line keep classifying.
func TestCmdServeReload(t *testing.T) {
	dir, binary := makeTree(t)
	modelA := filepath.Join(t.TempDir(), "model-rf.json")
	modelB := filepath.Join(t.TempDir(), "model-knn.json")
	if _, err := withStdout(t, func() error {
		return cmdTrain([]string{"-corpus", dir, "-model", modelA, "-threshold", "0.3", "-trees", "40"})
	}); err != nil {
		t.Fatalf("train rf: %v", err)
	}
	if _, err := withStdout(t, func() error {
		return cmdTrain([]string{"-corpus", dir, "-model", modelB, "-kind", "knn", "-threshold", "0.3"})
	}); err != nil {
		t.Fatalf("train knn: %v", err)
	}

	events := filepath.Join(t.TempDir(), "events.jsonl")
	lines := []string{
		`{"job_id":"1","user":"alice","exe":"a","path":"` + binary + `"}`,
		`{"reload":"` + modelB + `"}`,
		// The same binary after the swap: extraction stays deduplicated
		// (model-independent), but the prediction comes from the swapped
		// engine (the engine-level epoch tests prove no stale serving).
		`{"job_id":"2","user":"alice","exe":"a","path":"` + binary + `"}`,
		`{"reload":"/nonexistent/model.json"}`,
		`{"job_id":"3","user":"alice","exe":"a","path":"` + binary + `"}`,
		// A line mixing control and job fields is a producer bug: it must
		// be rejected, not half-processed.
		`{"job_id":"4","exe":"a","path":"` + binary + `","reload":"` + modelB + `"}`,
	}
	if err := os.WriteFile(events, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := withStdout(t, func() error {
		return cmdServe([]string{"-model", modelA, "-input", events})
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	got := strings.Split(strings.TrimSpace(out), "\n")
	if len(got) != len(lines) {
		t.Fatalf("serve emitted %d results for %d lines:\n%s", len(got), len(lines), out)
	}
	if !strings.Contains(got[0], `"label":"AppOne"`) {
		t.Fatalf("pre-reload result: %s", got[0])
	}
	if !strings.Contains(got[1], `"reloaded"`) || !strings.Contains(got[1], `"model_kind":"knn"`) {
		t.Fatalf("reload not acknowledged with the new kind: %s", got[1])
	}
	if !strings.Contains(got[2], `"label":"AppOne"`) {
		t.Fatalf("post-reload event mislabelled: %s", got[2])
	}
	if !strings.Contains(got[3], `"error"`) || !strings.Contains(got[3], `"reloaded"`) {
		t.Fatalf("failed reload not reported: %s", got[3])
	}
	if !strings.Contains(got[4], `"label":"AppOne"`) {
		t.Fatalf("stream did not survive the failed reload: %s", got[4])
	}
	if !strings.Contains(got[5], `"error"`) || !strings.Contains(got[5], `"job_id":"4"`) ||
		strings.Contains(got[5], `"label"`) {
		t.Fatalf("mixed control/job line not rejected: %s", got[5])
	}
}

// TestCmdServeUnknownVerb pins the control-line failure mode: a
// mistyped or unsupported control object must be rejected with a
// structured unknown-field error, not fed into featurisation where it
// would surface as a baffling "neither path nor binary_b64" error.
func TestCmdServeUnknownVerb(t *testing.T) {
	dir, binary := makeTree(t)
	model := filepath.Join(t.TempDir(), "model.json")
	if _, err := withStdout(t, func() error {
		return cmdTrain([]string{"-corpus", dir, "-model", model, "-threshold", "0.3", "-trees", "40"})
	}); err != nil {
		t.Fatalf("train: %v", err)
	}
	events := filepath.Join(t.TempDir(), "events.jsonl")
	lines := []string{
		`{"relaod":"/models/new.json"}`, // typo'd control verb
		`{"shutdown":true}`,             // unsupported control verb
		// A job event carrying a producer-side extra field must keep
		// classifying: strict decoding applies to control objects only.
		`{"job_id":"1","exe":"a","path":"` + binary + `","timestamp":123}`,
	}
	if err := os.WriteFile(events, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := withStdout(t, func() error {
		return cmdServe([]string{"-model", model, "-input", events})
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	got := strings.Split(strings.TrimSpace(out), "\n")
	if len(got) != len(lines) {
		t.Fatalf("serve emitted %d results for %d lines:\n%s", len(got), len(lines), out)
	}
	for i, verb := range []string{"relaod", "shutdown"} {
		if !strings.Contains(got[i], `"error"`) || !strings.Contains(got[i], verb) {
			t.Fatalf("unknown verb %q not rejected with a structured error: %s", verb, got[i])
		}
		if strings.Contains(got[i], "binary_b64") {
			t.Fatalf("unknown verb %q fell through to featurisation: %s", verb, got[i])
		}
	}
	if !strings.Contains(got[2], `"label":"AppOne"`) {
		t.Fatalf("stream did not survive the rejected control lines: %s", got[2])
	}
}

// TestCmdServeHTTP drives the network mode end to end: `-input none
// -http 127.0.0.1:0` serves the HTTP API until the shutdown trigger,
// classifying and exposing metrics over a real socket.
func TestCmdServeHTTP(t *testing.T) {
	dir, binary := makeTree(t)
	model := filepath.Join(t.TempDir(), "model.json")
	if _, err := withStdout(t, func() error {
		return cmdTrain([]string{"-corpus", dir, "-model", model, "-threshold", "0.3", "-trees", "40"})
	}); err != nil {
		t.Fatalf("train: %v", err)
	}

	bound := make(chan string, 1)
	var shutdown func()
	var shutdownMu sync.Mutex
	serveHTTPBound = func(addr string, stop func()) {
		shutdownMu.Lock()
		shutdown = stop
		shutdownMu.Unlock()
		bound <- addr
	}
	defer func() { serveHTTPBound = nil }()

	serveDone := make(chan error, 1)
	go func() {
		serveDone <- cmdServe([]string{"-model", model, "-input", "none", "-http", "127.0.0.1:0", "-http-paths"})
	}()
	var base string
	select {
	case addr := <-bound:
		base = "http://" + addr
	case err := <-serveDone:
		t.Fatalf("serve exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("HTTP listener never bound")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Classify by server-local path (-http-paths opted in).
	body := `{"exe":"job","path":"` + binary + `"}`
	cresp, err := http.Post(base+"/v1/classify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"label":"AppOne"`) {
		t.Fatalf("classify over HTTP: %d %s", cresp.StatusCode, raw)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mraw), "fhc_engine_cache_misses_total") {
		t.Fatalf("metrics exposition missing engine counters:\n%.400s", mraw)
	}

	shutdownMu.Lock()
	stop := shutdown
	shutdownMu.Unlock()
	stop()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve did not shut down cleanly: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("serve did not exit after shutdown")
	}

	if err := cmdServe([]string{"-model", model, "-input", "none"}); err == nil {
		t.Error("-input none without -http accepted")
	}
}

func TestCommandsRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, c := range commands() {
		names[c.name] = true
	}
	for _, want := range []string{"corpus", "hash", "compare", "strings", "nm", "ldd", "scan", "train", "classify", "report", "dups", "serve"} {
		if !names[want] {
			t.Errorf("command %q not registered", want)
		}
	}
}

// TestCmdServeRetrain drives the continuous-learning deployment the
// OPERATIONS.md runbook documents: HTTP serving with -retrain, harvest
// via classify traffic, a waited /v1/retrain kick, the promotion
// visible in /metrics and the artifact directory, and the training
// store persisted across shutdown.
func TestCmdServeRetrain(t *testing.T) {
	dir, _ := makeTree(t)
	model := filepath.Join(t.TempDir(), "model.json")
	if _, err := withStdout(t, func() error {
		return cmdTrain([]string{"-corpus", dir, "-model", model, "-threshold", "0.3", "-trees", "40"})
	}); err != nil {
		t.Fatalf("train: %v", err)
	}

	// Every binary of the install tree, for harvest traffic.
	var binaries []string
	if err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			binaries = append(binaries, path)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(binaries) < 8 {
		t.Fatalf("tree has %d binaries, need 8", len(binaries))
	}

	store := filepath.Join(t.TempDir(), "store.jsonl")
	artifacts := filepath.Join(t.TempDir(), "artifacts")

	bound := make(chan string, 1)
	var shutdown func()
	var shutdownMu sync.Mutex
	serveHTTPBound = func(addr string, stop func()) {
		shutdownMu.Lock()
		shutdown = stop
		shutdownMu.Unlock()
		bound <- addr
	}
	defer func() { serveHTTPBound = nil }()

	serveDone := make(chan error, 1)
	go func() {
		serveDone <- cmdServe([]string{
			"-model", model, "-input", "none", "-http", "127.0.0.1:0", "-http-paths",
			"-retrain", "-retrain-every", "-1", "-retrain-confidence", "0.5",
			"-retrain-margin", "0.25", "-retrain-store", store,
			"-retrain-artifacts", artifacts,
		})
	}()
	var base string
	select {
	case addr := <-bound:
		base = "http://" + addr
	case err := <-serveDone:
		t.Fatalf("serve exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("HTTP listener never bound")
	}

	post := func(path, body string) (int, string) {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(raw)
	}

	// Harvest: classify every tree binary by path.
	for _, bin := range binaries {
		if code, raw := post("/v1/classify", `{"exe":"job","path":"`+bin+`"}`); code != http.StatusOK {
			t.Fatalf("classify %s: %d %s", bin, code, raw)
		}
	}
	sresp, err := http.Get(base + "/v1/retrain/status")
	if err != nil {
		t.Fatal(err)
	}
	sraw, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if !strings.Contains(string(sraw), `"harvested":`) {
		t.Fatalf("status: %s", sraw)
	}

	// A waited kick retrains, gates and promotes synchronously.
	code, raw := post("/v1/retrain", `{"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("retrain: %d %s", code, raw)
	}
	if !strings.Contains(raw, `"promoted":true`) || !strings.Contains(raw, `"trigger":"http"`) {
		t.Fatalf("retrain result: %s", raw)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"fhc_retrain_runs_total 1",
		"fhc_retrain_promotions_total 1",
		"fhc_engine_swaps_total 1",
	} {
		if !strings.Contains(string(mraw), want) {
			t.Fatalf("metrics exposition missing %q:\n%.600s", want, mraw)
		}
	}

	kept, err := filepath.Glob(filepath.Join(artifacts, "model-*.json"))
	if err != nil || len(kept) != 1 {
		t.Fatalf("artifacts = %v (%v), want one", kept, err)
	}
	if _, err := os.Stat(filepath.Join(artifacts, "latest")); err != nil {
		t.Fatalf("latest pointer: %v", err)
	}

	shutdownMu.Lock()
	stop := shutdown
	shutdownMu.Unlock()
	stop()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve did not shut down cleanly: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("serve did not exit after shutdown")
	}

	// The harvested corpus survived the restart boundary.
	st, err := os.Stat(store)
	if err != nil || st.Size() == 0 {
		t.Fatalf("training store not persisted: %v", err)
	}
}
