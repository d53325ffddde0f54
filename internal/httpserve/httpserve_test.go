package httpserve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/par"
	"repro/internal/retrain"
	"repro/internal/rf"
	"repro/internal/serve"
	"repro/internal/synth"
)

// ----- shared fixture ---------------------------------------------------

var (
	fixOnce    sync.Once
	fixErr     error
	fixDir     string
	fixRF      *core.Classifier
	fixKNN     *core.Classifier
	fixSamples []dataset.Sample
	fixBins    [][]byte // raw binaries, index-aligned with fixSamples
	fixRFPath  string
	fixKNNPath string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if fixDir != "" {
		os.RemoveAll(fixDir)
	}
	os.Exit(code)
}

// fixture trains one rf and one knn site model over a small synthetic
// corpus and persists both as swap artifacts.
func fixture(t testing.TB) {
	t.Helper()
	buildFixture()
	if fixErr != nil {
		t.Fatal(fixErr)
	}
}

func buildFixture() {
	fixOnce.Do(func() {
		corpus, err := synth.Generate([]synth.ClassSpec{
			{Name: "Alpha", Samples: 8},
			{Name: "Beta", Samples: 8},
			{Name: "Gamma", Samples: 8},
		}, synth.Options{Seed: 7})
		if err != nil {
			fixErr = err
			return
		}
		fixSamples, err = dataset.FromCorpus(corpus, 0)
		if err != nil {
			fixErr = err
			return
		}
		for i := range corpus.Samples {
			fixBins = append(fixBins, corpus.Samples[i].Binary)
		}
		fixRF, err = core.Train(fixSamples, core.Config{
			Threshold: 0.3, Seed: 11, Forest: rf.Params{NumTrees: 30},
		})
		if err != nil {
			fixErr = err
			return
		}
		fixKNN, err = core.Train(fixSamples, core.Config{
			Threshold: 0.3, Seed: 11, Model: "knn",
		})
		if err != nil {
			fixErr = err
			return
		}
		fixDir, err = os.MkdirTemp("", "httpserve-test")
		if err != nil {
			fixErr = err
			return
		}
		save := func(clf *core.Classifier, name string) (string, error) {
			path := filepath.Join(fixDir, name)
			f, err := os.Create(path)
			if err != nil {
				return "", err
			}
			defer f.Close()
			return path, clf.Save(f)
		}
		if fixRFPath, err = save(fixRF, "rf.json"); err != nil {
			fixErr = err
			return
		}
		fixKNNPath, err = save(fixKNN, "knn.json")
		fixErr = err
	})
}

// newTestServer wires a fresh engine over the rf fixture model into an
// httptest server.
func newTestServer(t *testing.T, eopt serve.Options, opt Options) (*httptest.Server, *serve.Engine, *Server) {
	t.Helper()
	fixture(t)
	engine := serve.New(fixRF, eopt)
	s := New(engine, opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		engine.Close()
	})
	return ts, engine, s
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func classifyOver(t *testing.T, client *http.Client, base string, bin []byte) ClassifyResponse {
	t.Helper()
	code, body := postJSON(t, client, base+"/v1/classify", ClassifyRequest{
		Exe: "job", BinaryB64: base64.StdEncoding.EncodeToString(bin),
	})
	if code != http.StatusOK {
		t.Fatalf("classify status %d: %s", code, body)
	}
	var resp ClassifyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("classify response: %v\n%s", err, body)
	}
	return resp
}

// ----- functional tests -------------------------------------------------

// TestHTTPClassifyDifferential is the wire-level bit-identity gate:
// predictions served over HTTP equal calling Engine.Classify — and the
// classifier — directly, JSON round-trip included.
func TestHTTPClassifyDifferential(t *testing.T) {
	ts, _, _ := newTestServer(t, serve.Options{}, Options{})
	for i, bin := range fixBins {
		got := classifyOver(t, ts.Client(), ts.URL, bin)
		sample, err := dataset.FromBinary("", "", "check", bin)
		if err != nil {
			t.Fatal(err)
		}
		want := fixRF.Classify(&sample)
		if got.Label != want.Label || got.Class != want.Class || got.Confidence != want.Confidence {
			t.Fatalf("sample %d: HTTP %+v, direct %+v", i, got, want)
		}
	}
	// A duplicate submission is answered with the same label; it carried
	// a body, so it is not flagged cached.
	want := classifyOver(t, ts.Client(), ts.URL, fixBins[0])
	if got := classifyOver(t, ts.Client(), ts.URL, fixBins[0]); got != want || got.Cached {
		t.Fatalf("duplicate submission %+v, first %+v", got, want)
	}
}

func TestHTTPBatch(t *testing.T) {
	ts, engine, _ := newTestServer(t, serve.Options{}, Options{})
	req := BatchRequest{}
	for _, bin := range fixBins[:6] {
		req.Samples = append(req.Samples, ClassifyRequest{
			Exe: "batch-job", BinaryB64: base64.StdEncoding.EncodeToString(bin),
		})
	}
	// Two bad slots in the middle: order and per-item errors must hold.
	req.Samples = append(req.Samples[:3:3],
		append([]ClassifyRequest{
			{Exe: "bad-b64", BinaryB64: "!!!not-base64!!!"},
			{Exe: "empty"},
		}, req.Samples[3:]...)...)

	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/classify/batch", req)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(req.Samples) {
		t.Fatalf("batch returned %d results for %d samples", len(resp.Results), len(req.Samples))
	}
	for i, r := range resp.Results {
		switch i {
		case 3, 4:
			if r.Error == "" || r.Label != "" {
				t.Fatalf("bad slot %d not an error: %+v", i, r)
			}
		default:
			bini := i
			if i > 4 {
				bini = i - 2
			}
			sample, err := dataset.FromBinary("", "", "check", fixBins[bini])
			if err != nil {
				t.Fatal(err)
			}
			want := fixRF.Classify(&sample)
			if r.Label != want.Label || r.Confidence != want.Confidence {
				t.Fatalf("batch slot %d: %+v, want %+v", i, r, want)
			}
		}
	}
	if st := engine.Stats(); st.Misses != 6 {
		t.Fatalf("batch of 6 distinct binaries made %d engine misses, want 6: %+v", st.Misses, st)
	}

	if code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/classify/batch", BatchRequest{}); code != http.StatusBadRequest {
		t.Fatalf("empty batch accepted with %d", code)
	}
}

// TestHTTPBatchDuplicates sends N copies of one binary in one batch:
// every slot must carry the single-request answer, and the engine must
// classify the binary once, answering the other copies from the cache
// or the in-flight classification.
func TestHTTPBatchDuplicates(t *testing.T) {
	const n = 16
	ts, engine, _ := newTestServer(t, serve.Options{}, Options{})
	req := BatchRequest{}
	for i := 0; i < n; i++ {
		req.Samples = append(req.Samples, ClassifyRequest{
			Exe: "job", BinaryB64: base64.StdEncoding.EncodeToString(fixBins[2]),
		})
	}
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/classify/batch", req)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	st := engine.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != n-1 {
		t.Fatalf("batch of %d copies: %d misses, %d hits + %d coalesced; want 1 and %d",
			n, st.Misses, st.Hits, st.Coalesced, n-1)
	}
	want := classifyOver(t, ts.Client(), ts.URL, fixBins[2])
	if len(resp.Results) != n {
		t.Fatalf("batch returned %d results for %d samples", len(resp.Results), n)
	}
	for i, got := range resp.Results {
		if got != want {
			t.Fatalf("slot %d: %+v, single request %+v", i, got, want)
		}
	}
}

func TestHTTPSwap(t *testing.T) {
	ts, engine, _ := newTestServer(t, serve.Options{}, Options{})
	// Prime the cache under rf.
	pre := classifyOver(t, ts.Client(), ts.URL, fixBins[0])

	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/model/swap", SwapRequest{Path: fixKNNPath})
	if code != http.StatusOK {
		t.Fatalf("swap status %d: %s", code, body)
	}
	var sw SwapResponse
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.ModelKind != "knn" || sw.Swaps != 1 {
		t.Fatalf("swap ack: %+v", sw)
	}

	// The resubmitted binary is answered by the new model, not the old
	// cache epoch.
	sample, err := dataset.FromBinary("", "", "check", fixBins[0])
	if err != nil {
		t.Fatal(err)
	}
	want := fixKNN.Classify(&sample)
	got := classifyOver(t, ts.Client(), ts.URL, fixBins[0])
	if got.Label != want.Label || got.Confidence != want.Confidence {
		t.Fatalf("post-swap: HTTP %+v, knn direct %+v", got, want)
	}
	_ = pre

	// A failing artifact load leaves the installed model serving.
	code, body = postJSON(t, ts.Client(), ts.URL+"/v1/model/swap", SwapRequest{Path: "/nonexistent.json"})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("bad swap status %d: %s", code, body)
	}
	if st := engine.Stats(); st.Swaps != 1 {
		t.Fatalf("failed swap changed the engine: %+v", st)
	}
	if code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/model/swap", SwapRequest{}); code != http.StatusBadRequest {
		t.Fatalf("empty swap accepted with %d", code)
	}
}

// TestHTTPSwapRejectsMisshapenProfiles: a swap to an artifact whose
// profiles do not pair one-for-one with its features answers 422, and
// the installed model keeps serving bit-identically. Such artifacts used
// to load and serve the unpaired kind's columns as zeros with a 200.
func TestHTTPSwapRejectsMisshapenProfiles(t *testing.T) {
	ts, engine, _ := newTestServer(t, serve.Options{}, Options{})
	raw, err := os.ReadFile(fixKNNPath)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(artifact map[string]any){
		"last profile dropped": func(a map[string]any) {
			profiles := a["profiles"].([]any)
			a["profiles"] = profiles[:len(profiles)-1]
		},
		"feature kind repeated": func(a map[string]any) {
			features := a["features"].([]any)
			features[len(features)-1] = features[0]
		},
	} {
		var artifact map[string]any
		if err := json.Unmarshal(raw, &artifact); err != nil {
			t.Fatal(err)
		}
		mutate(artifact)
		bad, err := json.Marshal(artifact)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "misshapen.json")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		code, body := postJSON(t, ts.Client(), ts.URL+"/v1/model/swap", SwapRequest{Path: path})
		if code != http.StatusUnprocessableEntity || !strings.Contains(string(body), "profiles") {
			t.Fatalf("%s: swap answered %d: %s", name, code, body)
		}
	}
	if st := engine.Stats(); st.Swaps != 0 {
		t.Fatalf("a refused swap reached the engine: %+v", st)
	}
	for i, bin := range fixBins {
		want := fixRF.Classify(&fixSamples[i])
		got := classifyOver(t, ts.Client(), ts.URL, bin)
		if got.Label != want.Label || got.Class != want.Class || got.Confidence != want.Confidence {
			t.Fatalf("bin %d after refused swaps: HTTP %+v, incumbent %+v", i, got, want)
		}
	}
}

// TestHTTPSwapModelDir pins the swap containment knob: with ModelDir
// set, artifact paths outside it are refused before touching the
// filesystem, and paths inside it (including unclean ones) still swap.
func TestHTTPSwapModelDir(t *testing.T) {
	fixture(t)
	engine := serve.New(fixRF, serve.Options{})
	defer engine.Close()
	s := New(engine, Options{ModelDir: fixDir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, outside := range []string{
		"/etc/passwd",
		filepath.Join(fixDir, "..", "somewhere-else.json"),
		fixDir + "-sibling/knn.json",
	} {
		code, body := postJSON(t, ts.Client(), ts.URL+"/v1/model/swap", SwapRequest{Path: outside})
		if code != http.StatusBadRequest || !strings.Contains(string(body), "model directory") {
			t.Fatalf("outside path %q answered %d: %s", outside, code, body)
		}
	}
	if st := engine.Stats(); st.Swaps != 0 {
		t.Fatalf("refused swaps reached the engine: %+v", st)
	}

	inside := filepath.Join(fixDir, ".", "knn.json")
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/model/swap", SwapRequest{Path: inside})
	if code != http.StatusOK {
		t.Fatalf("inside path refused: %d %s", code, body)
	}
}

// TestHTTPClassifyWhileSwap hammers classification from many goroutines
// while models hot-swap through the HTTP endpoint — the race-mode
// acceptance test. Every response must be a committed answer from
// exactly one model generation (rf or knn, both trained on the same
// classes), never an error, a blend, or a dropped request.
func TestHTTPClassifyWhileSwap(t *testing.T) {
	// MaxConcurrent is pinned above workers+swapper: on a small
	// GOMAXPROCS box the default limit can legitimately 429 the
	// swapper, which is backpressure working, not a swap failure.
	ts, engine, _ := newTestServer(t, serve.Options{}, Options{MaxConcurrent: 64})
	client := ts.Client()

	validLabels := map[string]bool{core.UnknownLabel: true}
	for _, c := range fixRF.Classes() {
		validLabels[c] = true
	}

	const workers, iters = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters+64)
	stop := make(chan struct{})

	// Swapper: alternate rf and knn artifacts as fast as the server
	// accepts them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		paths := []string{fixKNNPath, fixRFPath}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			code, body := postJSON(t, client, ts.URL+"/v1/model/swap", SwapRequest{Path: paths[i%2]})
			if code != http.StatusOK {
				errs <- fmt.Errorf("swap %d: status %d: %s", i, code, body)
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				bin := fixBins[(w*iters+i)%len(fixBins)]
				resp := classifyOver(t, client, ts.URL, bin)
				if !validLabels[resp.Label] {
					errs <- fmt.Errorf("worker %d: label %q from no model generation", w, resp.Label)
					return
				}
			}
		}(w)
	}

	// Give the classify workers room to overlap swaps, then end the
	// swap loop and wait everything out.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := engine.Stats(); st.Swaps == 0 {
		t.Fatalf("no swaps installed during the run: %+v", st)
	}
}

// ----- protocol and backpressure tests ----------------------------------

func TestHTTPBadRequests(t *testing.T) {
	ts, _, _ := newTestServer(t, serve.Options{}, Options{})
	client := ts.Client()

	resp, err := client.Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET classify: %d", resp.StatusCode)
	}

	r2, err := client.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d", r2.StatusCode)
	}

	// Neither path nor content.
	if code, _ := postJSON(t, client, ts.URL+"/v1/classify", ClassifyRequest{Exe: "x"}); code != http.StatusBadRequest {
		t.Fatalf("content-less request: %d", code)
	}
	// Both path and content.
	if code, _ := postJSON(t, client, ts.URL+"/v1/classify", ClassifyRequest{
		Path: "/a", BinaryB64: "aGk=",
	}); code != http.StatusBadRequest {
		t.Fatalf("double-content request: %d", code)
	}
	// Paths are rejected unless the server opts in.
	if code, body := postJSON(t, client, ts.URL+"/v1/classify", ClassifyRequest{Path: "/etc/hostname"}); code != http.StatusBadRequest || !strings.Contains(string(body), "disabled") {
		t.Fatalf("path request not refused: %d %s", code, body)
	}
	// Valid base64, but not an ELF: extraction fails with 422.
	if code, _ := postJSON(t, client, ts.URL+"/v1/classify", ClassifyRequest{
		BinaryB64: base64.StdEncoding.EncodeToString([]byte("plain text")),
	}); code != http.StatusUnprocessableEntity {
		t.Fatalf("non-ELF request: %d", code)
	}
}

func TestHTTPPathRequestsWhenAllowed(t *testing.T) {
	fixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "binary")
	if err := os.WriteFile(path, fixBins[0], 0o644); err != nil {
		t.Fatal(err)
	}
	ts, _, _ := newTestServer(t, serve.Options{}, Options{AllowPaths: true})
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/classify", ClassifyRequest{Path: path})
	if code != http.StatusOK {
		t.Fatalf("allowed path request: %d %s", code, body)
	}
	var resp ClassifyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Label == "" {
		t.Fatalf("path classification empty: %+v", resp)
	}
}

func TestHTTPRequestTooLarge(t *testing.T) {
	ts, _, _ := newTestServer(t, serve.Options{}, Options{MaxBodyBytes: 1024})
	big := ClassifyRequest{BinaryB64: strings.Repeat("A", 4096)}
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/classify", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized request: %d %s", code, body)
	}
}

// blockingBackend parks every classification until released, so tests
// can hold a request in flight deterministically.
type blockingBackend struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingBackend) Classify(*dataset.Sample) core.Prediction {
	b.entered <- struct{}{}
	<-b.release
	return core.Prediction{Label: "Blocked", Class: "Blocked", Confidence: 1}
}

// panickingBackend fails every classification with a panic.
type panickingBackend struct{}

func (panickingBackend) Classify(*dataset.Sample) core.Prediction { panic("backend failure") }

// TestHTTPHandlerPanic: a backend panic on the raw leg and on the batch
// route (re-raised on the handler goroutine by the item pool) is
// answered 500 with a JSON error and counted under code 500, never as a
// 200, and the server keeps answering on the same connections.
func TestHTTPHandlerPanic(t *testing.T) {
	fixture(t)
	engine := serve.New(panickingBackend{}, serve.Options{})
	defer engine.Close()
	s := New(engine, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	resp, err := client.Post(ts.URL+"/v1/classify?exe=job", "application/octet-stream", bytes.NewReader(fixBins[0]))
	if err != nil {
		t.Fatalf("raw leg: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var e errorResponse
	if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(raw, &e) != nil || e.Error == "" {
		t.Fatalf("raw leg: %d %s, want a JSON 500", resp.StatusCode, raw)
	}

	batch := BatchRequest{}
	for _, bin := range fixBins[:3] {
		batch.Samples = append(batch.Samples, ClassifyRequest{BinaryB64: base64.StdEncoding.EncodeToString(bin)})
	}
	var logged bytes.Buffer
	log.SetOutput(&logged)
	code, body := postJSON(t, client, ts.URL+"/v1/classify/batch", batch)
	log.SetOutput(os.Stderr)
	if code != http.StatusInternalServerError || json.Unmarshal(body, &e) != nil || e.Error == "" {
		t.Fatalf("batch route: %d %s, want a JSON 500", code, body)
	}
	// The item pool re-raises the panic on the handler goroutine; the
	// log must still name the frame that panicked, not only the pool.
	if !strings.Contains(logged.String(), "panickingBackend.Classify") {
		t.Fatalf("batch-route panic log does not name the panicking frame:\n%s", logged.String())
	}
	if st := engine.Stats(); st.Inflight != 0 {
		t.Fatalf("%d flights left behind", st.Inflight)
	}

	// The next request is answered.
	sample := fixSamples[0]
	key, _ := serve.SampleKey(&sample)
	if code, body := postJSON(t, client, ts.URL+"/v1/classify", ClassifyRequest{SHA256: hex.EncodeToString(key[:])}); code != http.StatusNotFound {
		t.Fatalf("request after the panics: %d %s, want 404 needs_body", code, body)
	}

	m := scrape(t, client, ts.URL)
	for _, route := range []string{"/v1/classify", "/v1/classify/batch"} {
		if v := metricValue(t, m, `fhc_http_requests_total{route="`+route+`",code="500"}`); v != 1 {
			t.Errorf("%s: code 500 counted %v times, want 1", route, v)
		}
		if v := metricValue(t, m, `fhc_http_requests_total{route="`+route+`",code="200"}`); v != 0 {
			t.Errorf("%s: code 200 counted %v times, want 0", route, v)
		}
	}
}

// TestInstrumentPanicMidResponse: a panic after the response is under
// way cannot become a 500 on the wire, so the response is cut — the
// client sees an error, never a truncated 200 — and the request is
// still counted under code 500. http.ErrAbortHandler cuts it too, also
// when a worker pool re-raises it, and is not counted as a 500.
func TestInstrumentPanicMidResponse(t *testing.T) {
	s := New(serve.New(panickingBackend{}, serve.Options{}), Options{})
	mux := http.NewServeMux()
	mux.Handle("/partial", s.instrument("/partial", http.MethodGet, false, func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("partial"))
		panic("mid-response failure")
	}))
	mux.Handle("/abort", s.instrument("/abort", http.MethodGet, false, func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	mux.Handle("/pool-abort", s.instrument("/pool-abort", http.MethodGet, false, func(http.ResponseWriter, *http.Request) {
		par.Map(2, 2, func(int) { panic(http.ErrAbortHandler) })
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()
	for _, route := range []string{"/partial", "/abort", "/pool-abort"} {
		resp, err := ts.Client().Get(ts.URL + route)
		if err == nil {
			_, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if err == nil {
			t.Errorf("%s: the client read a complete response", route)
		}
	}
	if v := s.requests.With("/partial", "500").Value(); v != 1 {
		t.Errorf("mid-response panic counted %v times under code 500, want 1", v)
	}
	if v := s.requests.With("/pool-abort", "500").Value(); v != 0 {
		t.Errorf("pool-raised abort counted %v times under code 500, want 0", v)
	}
}

// TestHTTPBackpressure saturates a MaxConcurrent=1 server with a
// blocked request and asserts the next one is answered 429 immediately
// rather than queued.
func TestHTTPBackpressure(t *testing.T) {
	fixture(t)
	bb := &blockingBackend{entered: make(chan struct{}, 4), release: make(chan struct{})}
	engine := serve.New(bb, serve.Options{CacheEntries: -1})
	defer engine.Close()
	s := New(engine, Options{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	firstDone := make(chan ClassifyResponse, 1)
	go func() {
		firstDone <- classifyOver(t, ts.Client(), ts.URL, fixBins[0])
	}()
	<-bb.entered // the first request is now inside the backend

	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/classify", ClassifyRequest{
		BinaryB64: base64.StdEncoding.EncodeToString(fixBins[1]),
	})
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d: %s", code, body)
	}

	close(bb.release)
	if resp := <-firstDone; resp.Label != "Blocked" {
		t.Fatalf("blocked request lost: %+v", resp)
	}
	// Health stays exempt from the semaphore even under saturation.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under load: %d", resp.StatusCode)
	}
}

// TestHTTPGracefulShutdown drives Serve on a real listener: Shutdown
// must flip readiness, stop accepting connections, and still let the
// in-flight classification drain through the engine.
func TestHTTPGracefulShutdown(t *testing.T) {
	fixture(t)
	bb := &blockingBackend{entered: make(chan struct{}, 1), release: make(chan struct{})}
	engine := serve.New(bb, serve.Options{CacheEntries: -1})
	defer engine.Close()
	s := New(engine, Options{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}

	// Readiness before shutdown.
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before shutdown: %d", resp.StatusCode)
	}

	inFlight := make(chan ClassifyResponse, 1)
	go func() {
		inFlight <- classifyOver(t, client, base, fixBins[0])
	}()
	<-bb.entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Shutdown must not return while the classification is still in its
	// engine window.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before the in-flight request drained: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(bb.release)
	if resp := <-inFlight; resp.Label != "Blocked" {
		t.Fatalf("in-flight request dropped during shutdown: %+v", resp)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// TestHTTPShutdownBeforeServe pins the startup/shutdown race: a
// Shutdown that completes before Serve is ever called must still win —
// the later Serve returns ErrServerClosed immediately instead of
// running an unstoppable listener.
func TestHTTPShutdownBeforeServe(t *testing.T) {
	fixture(t)
	engine := serve.New(fixRF, serve.Options{})
	defer engine.Close()
	s := New(engine, Options{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown before Serve: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	select {
	case err := <-done:
		if err != http.ErrServerClosed {
			t.Fatalf("Serve after Shutdown returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve kept running after a completed Shutdown")
	}
}

// ----- metrics tests ----------------------------------------------------

// scrape fetches /metrics and returns the exposition body after
// validating every line is well-formed Prometheus text.
func scrape(t *testing.T, client *http.Client, base string) string {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("unparseable sample value in %q: %v", line, err)
		}
		series := line[:sp]
		if i := strings.IndexByte(series, '{'); i >= 0 && !strings.HasSuffix(series, "}") {
			t.Fatalf("unbalanced label braces in %q", line)
		}
	}
	return body
}

// metricValue extracts one series value from an exposition body.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q absent from exposition:\n%s", series, body)
	return 0
}

// TestHTTPMetricsMoveUnderLoad is the observability acceptance gate: a
// scripted load of duplicate submissions and a hot-swap must move the
// cache-hit and swap counters between scrapes, and the exposition must
// stay parseable throughout.
func TestHTTPMetricsMoveUnderLoad(t *testing.T) {
	ts, _, _ := newTestServer(t, serve.Options{}, Options{})
	client := ts.Client()

	before := scrape(t, client, ts.URL)
	hits0 := metricValue(t, before, "fhc_engine_cache_hits_total")
	swaps0 := metricValue(t, before, "fhc_engine_swaps_total")

	// Scripted load: one cold submission, then the same binary four
	// more times — engine cache hits — then a model swap.
	for i := 0; i < 5; i++ {
		classifyOver(t, client, ts.URL, fixBins[0])
	}
	if code, body := postJSON(t, client, ts.URL+"/v1/model/swap", SwapRequest{Path: fixKNNPath}); code != http.StatusOK {
		t.Fatalf("swap: %d %s", code, body)
	}

	after := scrape(t, client, ts.URL)
	if hits := metricValue(t, after, "fhc_engine_cache_hits_total"); hits < hits0+4 {
		t.Fatalf("cache hits did not move: %v -> %v", hits0, hits)
	}
	if swaps := metricValue(t, after, "fhc_engine_swaps_total"); swaps != swaps0+1 {
		t.Fatalf("swap counter did not move: %v -> %v", swaps0, swaps)
	}
	if v := metricValue(t, after, `fhc_http_requests_total{route="/v1/classify",code="200"}`); v < 5 {
		t.Fatalf("request counter = %v, want >= 5", v)
	}
	if v := metricValue(t, after, `fhc_http_request_seconds_count{route="/v1/classify"}`); v < 5 {
		t.Fatalf("latency histogram count = %v, want >= 5", v)
	}
	// The prediction cache is the worker's only cache: no collector
	// series is exported.
	if strings.Contains(after, "fhc_collector_") {
		t.Fatalf("exposition carries a collector series:\n%s", after)
	}
	// 429/413 and other codes land in the same family with their code
	// label; probe one to keep the label path covered.
	if !strings.Contains(after, `fhc_http_requests_total{route="/metrics",code="200"}`) {
		t.Fatalf("metrics route not self-counted:\n%s", after)
	}
}

// ----- continuous learning over HTTP ------------------------------------

// getJSON fetches a URL and returns status and body.
func getJSON(t *testing.T, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestHTTPRetrainDisabled(t *testing.T) {
	ts, _, _ := newTestServer(t, serve.Options{}, Options{})
	if code, body := postJSON(t, ts.Client(), ts.URL+"/v1/retrain", RetrainRequest{}); code != http.StatusNotFound {
		t.Fatalf("retrain without retrainer: %d %s", code, body)
	}
	if code, body := getJSON(t, ts.Client(), ts.URL+"/v1/retrain/status"); code != http.StatusNotFound {
		t.Fatalf("status without retrainer: %d %s", code, body)
	}
}

// retrainTestServer wires a server whose retrainer promotes instantly
// (prebuilt candidate) over a pre-filled store.
func retrainTestServer(t *testing.T, candidate *core.Classifier) (*httptest.Server, *serve.Engine, *retrain.Retrainer) {
	t.Helper()
	fixture(t)
	engine := serve.New(fixRF, serve.Options{})
	rt, err := retrain.New(engine, fixRF, retrain.Options{
		MinNewSamples: -1,
		MinConfidence: 0.5,
		TrainFunc: func([]dataset.Sample, core.Config) (*core.Classifier, error) {
			return candidate, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fixSamples {
		rt.HarvestLabeled(&fixSamples[i], fixSamples[i].Class)
	}
	s := New(engine, Options{Retrainer: rt})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
		engine.Close()
	})
	return ts, engine, rt
}

func TestHTTPRetrainWaitKickAndStatus(t *testing.T) {
	ts, engine, rt := retrainTestServer(t, fixRF)
	client := ts.Client()

	// Waited kick: the response carries the cycle result.
	code, body := postJSON(t, client, ts.URL+"/v1/retrain", RetrainRequest{Wait: true})
	if code != http.StatusOK {
		t.Fatalf("waited retrain: %d %s", code, body)
	}
	var resp RetrainResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("retrain response: %v\n%s", err, body)
	}
	if !resp.Triggered || resp.Result == nil || !resp.Result.Promoted {
		t.Fatalf("waited retrain should promote: %s", body)
	}
	if resp.Result.Trigger != "http" {
		t.Fatalf("trigger = %q, want http", resp.Result.Trigger)
	}
	if engine.Stats().Swaps != 1 {
		t.Fatalf("swaps = %d, want 1", engine.Stats().Swaps)
	}

	// Background kick (empty body): 202, then the cycle lands.
	resp2, err := client.Post(ts.URL+"/v1/retrain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("background kick: %d", resp2.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for rt.Stats().Runs < 2 {
		if time.Now().After(deadline) {
			t.Fatal("background kick never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Status reflects both cycles.
	code, body = getJSON(t, client, ts.URL+"/v1/retrain/status")
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, body)
	}
	var st retrain.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status response: %v\n%s", err, body)
	}
	if st.Runs != 2 || st.Promotions != 2 || st.Last == nil {
		t.Fatalf("status = %s", body)
	}
}

// TestHTTPRetrainBodyTooLarge: an oversized retrain request is refused
// 413, like every other size-limited route, and kicks nothing; a
// malformed one is a 400.
func TestHTTPRetrainBodyTooLarge(t *testing.T) {
	ts, _, rt := retrainTestServer(t, fixRF)
	big := `{"wait":true,"pad":"` + strings.Repeat("A", 2<<20) + `"}`
	resp, err := ts.Client().Post(ts.URL+"/v1/retrain", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized retrain request: %d %s", resp.StatusCode, body)
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/retrain", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed retrain request: %d", resp.StatusCode)
	}
	if runs := rt.Stats().Runs; runs != 0 {
		t.Fatalf("refused requests ran %d cycles", runs)
	}
}

// TestHTTPClassifyHarvestsIntoStore proves the classify route feeds the
// continuous-learning store: confident predictions are admitted, and a
// duplicate submission does not occupy a second slot.
func TestHTTPClassifyHarvestsIntoStore(t *testing.T) {
	fixture(t)
	engine := serve.New(fixRF, serve.Options{})
	rt, err := retrain.New(engine, fixRF, retrain.Options{MinNewSamples: -1, MinConfidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s := New(engine, Options{Retrainer: rt})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
		engine.Close()
	})

	classifyOver(t, ts.Client(), ts.URL, fixBins[0])
	classifyOver(t, ts.Client(), ts.URL, fixBins[0]) // duplicate content
	classifyOver(t, ts.Client(), ts.URL, fixBins[1])

	st := rt.Stats()
	if st.StoreSize != 2 {
		t.Fatalf("store holds %d samples after 3 submissions of 2 binaries: %+v", st.StoreSize, st)
	}
	if st.Harvested != 2 {
		t.Fatalf("harvested = %d, want 2: %+v", st.Harvested, st)
	}
}

// TestHTTPManualSwapResetsIncumbent proves a manual model swap updates
// the promotion gate's baseline: after swapping in a deliberately
// degraded model, a cycle's incumbent score is the degraded one.
func TestHTTPManualSwapResetsIncumbent(t *testing.T) {
	fixture(t)
	// A degraded artifact: the rf fixture with an unreachable threshold,
	// so every prediction demotes to unknown.
	degraded, err := core.LoadFile(fixRFPath)
	if err != nil {
		t.Fatal(err)
	}
	degraded.SetThreshold(1.5)
	degradedPath := filepath.Join(t.TempDir(), "degraded.json")
	if err := core.SaveFile(degradedPath, degraded); err != nil {
		t.Fatal(err)
	}

	ts, _, _ := retrainTestServer(t, fixRF)
	client := ts.Client()
	if code, body := postJSON(t, client, ts.URL+"/v1/model/swap", SwapRequest{Path: degradedPath}); code != http.StatusOK {
		t.Fatalf("swap: %d %s", code, body)
	}

	code, body := postJSON(t, client, ts.URL+"/v1/retrain", RetrainRequest{Wait: true})
	if code != http.StatusOK {
		t.Fatalf("retrain: %d %s", code, body)
	}
	var resp RetrainResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	res := resp.Result
	if res == nil || !res.Promoted {
		t.Fatalf("candidate should beat the degraded incumbent: %s", body)
	}
	if res.IncumbentF1 >= res.CandidateF1 {
		t.Fatalf("incumbent not reset to the degraded model: incumbent %v vs candidate %v",
			res.IncumbentF1, res.CandidateF1)
	}
}
