package httpserve

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/openset"
	"repro/internal/retrain"
	"repro/internal/serve"
	"repro/internal/synth"
)

// calibratedRF returns a fresh calibrated copy of the rf fixture model
// and the path of its saved artifact (model and calibration persisted
// as one unit).
func calibratedRF(t *testing.T) (*core.Classifier, string) {
	t.Helper()
	fixture(t)
	clf, err := core.LoadFile(fixRFPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clf.Calibrate(fixSamples, openset.CalibrateOptions{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rf-cal.json")
	if err := core.SaveFile(path, clf); err != nil {
		t.Fatal(err)
	}
	return clf, path
}

// novelBins generates binaries of a class the fixture models never
// trained on, built from a disjoint genome.
func novelBins(t testing.TB, n int) [][]byte {
	t.Helper()
	corpus, err := synth.Generate([]synth.ClassSpec{
		{Name: "Delta", Samples: n},
	}, synth.Options{Seed: 4242})
	if err != nil {
		t.Fatal(err)
	}
	bins := make([][]byte, len(corpus.Samples))
	for i := range corpus.Samples {
		bins[i] = corpus.Samples[i].Binary
	}
	return bins
}

// TestHTTPOpenSetVerdictAllProtocols proves a calibrated model's
// verdict reaches the wire on every classify leg — buffered JSON, raw
// octet-stream, hash-first probe and batch — bit-identical to direct
// classification.
func TestHTTPOpenSetVerdictAllProtocols(t *testing.T) {
	clf, _ := calibratedRF(t)
	engine := serve.New(clf, serve.Options{})
	s := New(engine, Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		engine.Close()
	})
	client := ts.Client()
	direct := func(bin []byte) core.Prediction {
		sample, err := dataset.FromBinary("", "", "check", bin)
		if err != nil {
			t.Fatal(err)
		}
		return clf.Classify(&sample)
	}

	// Buffered JSON leg.
	for i, bin := range fixBins[:4] {
		want := direct(bin)
		if want.Verdict == "" {
			t.Fatalf("calibrated fixture classifies without a verdict: %+v", want)
		}
		got := classifyOver(t, client, ts.URL, bin)
		if got.Verdict != string(want.Verdict) || got.Label != want.Label || got.Confidence != want.Confidence {
			t.Fatalf("JSON leg sample %d: HTTP %+v, direct %+v", i, got, want)
		}
	}

	// Raw octet-stream leg.
	want := direct(fixBins[4])
	code, body := postRaw(t, client, ts.URL, "raw-job", fixBins[4])
	if code != http.StatusOK {
		t.Fatalf("raw classify: %d %s", code, body)
	}
	var raw ClassifyResponse
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("raw response: %v\n%s", err, body)
	}
	if raw.Verdict != string(want.Verdict) || raw.Label != want.Label {
		t.Fatalf("raw leg: HTTP %+v, direct %+v", raw, want)
	}

	// Hash-first probe: the cached prediction carries its verdict.
	sum := sha256.Sum256(fixBins[0])
	wantHash := direct(fixBins[0])
	code, body = postJSON(t, client, ts.URL+"/v1/classify", ClassifyRequest{
		Exe: "probe", SHA256: hex.EncodeToString(sum[:]),
	})
	if code != http.StatusOK {
		t.Fatalf("warm hash probe: %d %s", code, body)
	}
	var probe ClassifyResponse
	if err := json.Unmarshal(body, &probe); err != nil {
		t.Fatal(err)
	}
	if !probe.Cached || probe.Verdict != string(wantHash.Verdict) {
		t.Fatalf("warm hash probe lost the verdict: %+v, direct %+v", probe, wantHash)
	}

	// Batch leg: a hash hit and a full body in one request.
	code, body = postJSON(t, client, ts.URL+"/v1/classify/batch", BatchRequest{Samples: []ClassifyRequest{
		{Exe: "warm", SHA256: hex.EncodeToString(sum[:])},
		{Exe: "full", BinaryB64: base64.StdEncoding.EncodeToString(fixBins[5])},
	}})
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	var bresp BatchResponse
	if err := json.Unmarshal(body, &bresp); err != nil {
		t.Fatal(err)
	}
	if r := bresp.Results[0]; r.Verdict != string(wantHash.Verdict) {
		t.Fatalf("batch hash slot lost the verdict: %+v", r)
	}
	wantFull := direct(fixBins[5])
	if r := bresp.Results[1]; r.Verdict != string(wantFull.Verdict) || r.Label != wantFull.Label {
		t.Fatalf("batch full slot: %+v, direct %+v", r, wantFull)
	}

	// A binary from a class the model never trained on comes back
	// unknown on both the label and the verdict.
	unknowns := 0
	novel := novelBins(t, 8)
	for _, bin := range novel {
		resp := classifyOver(t, client, ts.URL, bin)
		if resp.Verdict == string(openset.VerdictUnknown) {
			if resp.Label != core.UnknownLabel {
				t.Fatalf("unknown verdict did not demote the label: %+v", resp)
			}
			unknowns++
		}
	}
	if unknowns == 0 {
		t.Fatalf("no novel-class binary was served as unknown (%d tried)", len(novel))
	}
}

// TestHTTPOpenSetUncalibratedWireCompat pins backward compatibility: a
// server over an uncalibrated model must not emit the verdict field at
// all, on any leg.
func TestHTTPOpenSetUncalibratedWireCompat(t *testing.T) {
	ts, _, _ := newTestServer(t, serve.Options{}, Options{})
	client := ts.Client()
	code, body := postJSON(t, client, ts.URL+"/v1/classify", ClassifyRequest{
		Exe: "job", BinaryB64: base64.StdEncoding.EncodeToString(fixBins[0]),
	})
	if code != http.StatusOK {
		t.Fatalf("classify: %d %s", code, body)
	}
	if strings.Contains(string(body), `"verdict"`) {
		t.Fatalf("uncalibrated response leaks a verdict field: %s", body)
	}
	code, body = postRaw(t, client, ts.URL, "", fixBins[1])
	if code != http.StatusOK || strings.Contains(string(body), `"verdict"`) {
		t.Fatalf("uncalibrated raw response: %d %s", code, body)
	}
}

// TestHTTPOpenSetDriftAlarmKicksRetrain drives the full drift loop over
// HTTP: healthy traffic keeps the detector quiet, a burst of novel-
// class traffic latches the alarm, the alarm kicks a retraining cycle
// attributed to drift, and the server's own exposition carries the
// fhc_drift_* series.
func TestHTTPOpenSetDriftAlarmKicksRetrain(t *testing.T) {
	clf, _ := calibratedRF(t)
	reg := metrics.NewRegistry()
	det := openset.NewDetector(clf.Calibration().Baseline, openset.DriftOptions{
		Window: 32, MinSamples: 8, Registry: reg,
	})
	engine := serve.New(clf, serve.Options{})
	rt, err := retrain.New(engine, clf, retrain.Options{
		MinNewSamples: -1,
		MinConfidence: 0.5,
		Drift:         det,
		TrainFunc: func([]dataset.Sample, core.Config) (*core.Classifier, error) {
			return clf, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fixSamples {
		rt.HarvestLabeled(&fixSamples[i], fixSamples[i].Class)
	}
	s := New(engine, Options{Retrainer: rt, Drift: det, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
		engine.Close()
	})
	client := ts.Client()

	// Healthy traffic: the population the calibration was tuned on.
	for _, bin := range fixBins {
		classifyOver(t, client, ts.URL, bin)
	}
	if det.State().Alarmed {
		t.Fatalf("healthy traffic latched the drift alarm: %+v", det.State())
	}

	// Drifting traffic: a novel class floods the window with unknowns.
	for _, bin := range novelBins(t, 40) {
		classifyOver(t, client, ts.URL, bin)
	}
	st := det.State()
	if st.Alarms == 0 {
		t.Fatalf("novel-class flood never latched the drift alarm: %+v", st)
	}

	// The alarm hook kicked a cycle attributed to drift.
	deadline := time.Now().Add(30 * time.Second)
	for rt.Stats().Runs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("drift alarm never kicked a retraining cycle")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if last := rt.Stats().Last; last == nil || last.Trigger != "drift" {
		t.Fatalf("cycle not attributed to drift: %+v", rt.Stats())
	}

	// The server's exposition carries the drift series.
	body := scrape(t, client, ts.URL)
	if v := metricValue(t, body, "fhc_drift_alarms_total"); v < 1 {
		t.Fatalf("fhc_drift_alarms_total = %v after a latched alarm", v)
	}
	if v := metricValue(t, body, `fhc_openset_verdicts_total{verdict="unknown"}`); v < 1 {
		t.Fatalf("unknown-verdict counter = %v after a novel-class flood", v)
	}
	for _, series := range []string{
		"fhc_drift_observations_total", "fhc_drift_state", "fhc_drift_chi_square",
		"fhc_drift_unknown_z", "fhc_drift_window_unknown_rate", "fhc_drift_baseline_unknown_rate",
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("exposition missing %s", series)
		}
	}
}

// TestHTTPOpenSetSwapRebaselinesDrift pins calibration atomicity on the
// manual swap path: installing a new artifact resets the drift window
// and re-baselines the detector from the artifact's own calibration, so
// traffic served by the new model is never tested against the old
// model's baseline.
func TestHTTPOpenSetSwapRebaselinesDrift(t *testing.T) {
	clf, calPath := calibratedRF(t)
	det := openset.NewDetector(clf.Calibration().Baseline, openset.DriftOptions{
		Window: 32, MinSamples: 8,
	})
	engine := serve.New(clf, serve.Options{})
	s := New(engine, Options{Drift: det})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		engine.Close()
	})
	client := ts.Client()

	// Latch the alarm with novel traffic.
	for _, bin := range novelBins(t, 24) {
		classifyOver(t, client, ts.URL, bin)
	}
	if !det.State().Alarmed {
		t.Fatalf("novel flood did not latch the alarm: %+v", det.State())
	}

	// Install an artifact: window and latch must reset atomically with
	// the model, baseline taken from the artifact's calibration.
	code, body := postJSON(t, client, ts.URL+"/v1/model/swap", SwapRequest{Path: calPath})
	if code != http.StatusOK {
		t.Fatalf("swap: %d %s", code, body)
	}
	st := det.State()
	if st.Alarmed || st.WindowSize != 0 {
		t.Fatalf("swap did not reset the drift window: %+v", st)
	}
	if st.BaselineUnknownRate != clf.Calibration().Baseline.UnknownRate {
		t.Fatalf("baseline rate %v, artifact's %v", st.BaselineUnknownRate, clf.Calibration().Baseline.UnknownRate)
	}
}

// TestHTTPOpenSetClassifyWhileSwapAtomic is the calibration-atomicity
// race drill: concurrent classify load while artifacts hot-swap between
// a calibrated rf and an uncalibrated knn. Every response must equal —
// label, class, confidence AND verdict together — exactly one model
// generation's answer: a new model served under the old model's
// thresholds (or vice versa) would produce a tuple matching neither.
func TestHTTPOpenSetClassifyWhileSwapAtomic(t *testing.T) {
	clf, calPath := calibratedRF(t)
	engine := serve.New(clf, serve.Options{})
	s := New(engine, Options{MaxConcurrent: 64})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		engine.Close()
	})
	client := ts.Client()

	// Expected full tuples per binary, one per generation.
	type tuple struct {
		label, class, verdict string
		conf                  float64
	}
	wantCal := make([]tuple, len(fixBins))
	wantKNN := make([]tuple, len(fixBins))
	for i, bin := range fixBins {
		sample, err := dataset.FromBinary("", "", "check", bin)
		if err != nil {
			t.Fatal(err)
		}
		p := clf.Classify(&sample)
		wantCal[i] = tuple{p.Label, p.Class, string(p.Verdict), p.Confidence}
		if wantCal[i].verdict == "" {
			t.Fatalf("calibrated generation has no verdict for bin %d", i)
		}
		p = fixKNN.Classify(&sample)
		wantKNN[i] = tuple{p.Label, p.Class, string(p.Verdict), p.Confidence}
		if wantKNN[i].verdict != "" {
			t.Fatalf("uncalibrated generation has a verdict for bin %d", i)
		}
	}

	const workers, iters = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters+64)
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		paths := []string{fixKNNPath, calPath}
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
				bi := (w*iters + i) % len(fixBins)
				resp := classifyOver(t, client, ts.URL, fixBins[bi])
				got := tuple{resp.Label, resp.Class, resp.Verdict, resp.Confidence}
				if got != wantCal[bi] && got != wantKNN[bi] {
					errs <- fmt.Errorf("worker %d bin %d: %+v matches neither generation (cal %+v, knn %+v)",
						w, bi, got, wantCal[bi], wantKNN[bi])
					return
				}
			}
		}(w)
	}

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
