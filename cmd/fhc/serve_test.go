package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/httpserve"
	"repro/internal/monitor"
)

// The stream loop hands the classify service to the monitor; the batch
// surface keeps each stream window in one engine call.
var _ monitor.BatchLabeler = (*httpserve.Server)(nil)

// trainModel trains a small model on the test tree, passing extra
// flags to fhc train, and returns the artifact path.
func trainModel(t *testing.T, dir string, extra ...string) string {
	t.Helper()
	model := filepath.Join(t.TempDir(), "model.json")
	args := append([]string{"-corpus", dir, "-model", model, "-threshold", "0.3", "-trees", "40"}, extra...)
	if _, err := withStdout(t, func() error { return cmdTrain(args) }); err != nil {
		t.Fatalf("train: %v", err)
	}
	return model
}

// TestCmdServeOversizedLine pins the stream loop's answer to a line
// over the event cap: the results already accepted are still emitted,
// the oversized line becomes its own error result, and the stream goes
// on to the next event.
func TestCmdServeOversizedLine(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and streams a 65 MiB event line")
	}
	dir, binary := makeTree(t)
	model := trainModel(t, dir)

	events := filepath.Join(t.TempDir(), "events.jsonl")
	f, err := os.Create(events)
	if err != nil {
		t.Fatal(err)
	}
	job := func(id string) string {
		return `{"job_id":"` + id + `","user":"alice","exe":"a","path":"` + binary + `"}` + "\n"
	}
	w := bufio.NewWriter(f)
	w.WriteString(job("1"))
	w.WriteString(job("2"))
	w.WriteString(`{"job_id":"3","exe":"huge","binary_b64":"`)
	chunk := bytes.Repeat([]byte("QUFB"), 1<<18) // 1 MiB of base64
	for written := 0; written < 65<<20; written += len(chunk) {
		w.Write(chunk)
	}
	w.WriteString("\"}\n")
	w.WriteString(job("4"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := withStdout(t, func() error {
		return cmdServe([]string{"-model", model, "-input", events})
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	got := strings.Split(strings.TrimSpace(out), "\n")
	if len(got) != 4 {
		t.Fatalf("serve emitted %d results for 4 events:\n%.2000s", len(got), out)
	}
	for _, i := range []int{0, 1, 3} {
		if !strings.Contains(got[i], `"job_id":"`+strconv.Itoa(i+1)+`"`) ||
			!strings.Contains(got[i], `"label":"AppOne"`) {
			t.Fatalf("result %d: %s", i, got[i])
		}
	}
	if !strings.Contains(got[2], `"error":"line 3: `) || !strings.Contains(got[2], "exceeds") {
		t.Fatalf("oversized line not reported as its own error result: %s", got[2])
	}
}

// wantAnswer is the part of a prediction every serving path must agree on.
type wantAnswer struct {
	Label      string  `json:"label"`
	Class      string  `json:"class"`
	Verdict    string  `json:"verdict"`
	Confidence float64 `json:"confidence"`
}

// TestCmdServeCrossSurface is the differential test across every way
// fhc serve answers: the JSON-lines stream (path and inline events) and
// the HTTP raw, inline, path, batch and hash-first legs, all over one
// calibrated model with a retrainer and a shared drift detector. Every
// path must return the in-process classifier's answer, and every served
// verdict must move the drift and harvest counters by exactly one —
// except hash-first hits, which are observed but never harvested
// because no body arrived.
func TestCmdServeCrossSurface(t *testing.T) {
	dir, _ := makeTree(t)
	model := trainModel(t, dir, "-calibrate", "0.25")
	clf, err := core.LoadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	if clf.Calibration() == nil {
		t.Fatal("test premise: the artifact is not calibrated")
	}

	// Three binaries of different classes, with the in-process answer.
	var bins []string
	for _, class := range []string{"AppOne", "AppTwo", "AppThree"} {
		matches, err := filepath.Glob(filepath.Join(dir, class, "*", "*"))
		if err != nil || len(matches) == 0 {
			t.Fatalf("no binary for %s under %s: %v", class, dir, err)
		}
		bins = append(bins, matches[0])
	}
	want := map[string]wantAnswer{}
	raws := map[string][]byte{}
	for _, bin := range bins {
		raw, err := os.ReadFile(bin)
		if err != nil {
			t.Fatal(err)
		}
		sample, err := dataset.FromBinary("", "", "job", raw)
		if err != nil {
			t.Fatal(err)
		}
		p := clf.Classify(&sample)
		want[bin] = wantAnswer{Label: p.Label, Class: p.Class, Verdict: string(p.Verdict), Confidence: p.Confidence}
		raws[bin] = raw
	}

	// The stream runs over a pipe the test feeds one event at a time,
	// reading each result before it scrapes the counters.
	stdinR, stdinW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdoutR, stdoutW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldIn, oldOut := os.Stdin, os.Stdout
	os.Stdin, os.Stdout = stdinR, stdoutW
	t.Cleanup(func() {
		os.Stdin, os.Stdout = oldIn, oldOut
		stdinW.Close()
		stdoutR.Close()
	})
	bound := make(chan string, 1)
	serveHTTPBound = func(addr string, _ func()) { bound <- addr }
	t.Cleanup(func() { serveHTTPBound = nil })

	serveDone := make(chan error, 1)
	go func() {
		serveDone <- cmdServe([]string{"-model", model, "-input", "-", "-chunk", "1",
			"-http", "127.0.0.1:0", "-http-paths", "-retrain", "-retrain-every", "-1"})
		stdoutW.Close()
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
	results := bufio.NewReader(stdoutR)

	counters := func() (observed, offered, hashHits float64) {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		value := func(series string) float64 {
			for _, line := range strings.Split(string(raw), "\n") {
				if v, ok := strings.CutPrefix(line, series+" "); ok {
					f, err := strconv.ParseFloat(v, 64)
					if err != nil {
						t.Fatalf("%s: %v", line, err)
					}
					return f
				}
			}
			t.Fatalf("series %s absent from /metrics", series)
			return 0
		}
		return value("fhc_drift_observations_total"),
			value("fhc_retrain_harvested_total") + value("fhc_retrain_harvest_skipped_total"),
			value("fhc_classify_hash_first_hits_total")
	}
	post := func(path, contentType string, body []byte) []byte {
		resp, err := http.Post(base+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, resp.StatusCode, raw)
		}
		return raw
	}
	stream := func(event string) []byte {
		if _, err := io.WriteString(stdinW, event+"\n"); err != nil {
			t.Fatal(err)
		}
		line, err := results.ReadBytes('\n')
		if err != nil {
			t.Fatalf("stream result: %v", err)
		}
		return line
	}
	decode := func(raw []byte) []wantAnswer {
		var one wantAnswer
		var batch struct{ Results []wantAnswer }
		if err := json.Unmarshal(raw, &batch); err == nil && batch.Results != nil {
			return batch.Results
		}
		if err := json.Unmarshal(raw, &one); err != nil {
			t.Fatalf("decode %s: %v", raw, err)
		}
		return []wantAnswer{one}
	}

	for _, bin := range bins {
		b64 := base64.StdEncoding.EncodeToString(raws[bin])
		sum := sha256.Sum256(raws[bin])
		paths := []struct {
			name    string
			verdict int // verdicts served by one call
			harvest bool
			hash    bool
			call    func() []byte
		}{
			{"stream path event", 1, true, false, func() []byte {
				return stream(`{"job_id":"1","user":"alice","exe":"job","path":"` + bin + `"}`)
			}},
			{"stream inline event", 1, true, false, func() []byte {
				return stream(`{"job_id":"2","user":"alice","exe":"job","binary_b64":"` + b64 + `"}`)
			}},
			{"raw leg", 1, true, false, func() []byte {
				return post("/v1/classify?exe=job", "application/octet-stream", raws[bin])
			}},
			{"inline binary_b64", 1, true, false, func() []byte {
				return post("/v1/classify", "application/json", []byte(`{"exe":"job","binary_b64":"`+b64+`"}`))
			}},
			{"path", 1, true, false, func() []byte {
				return post("/v1/classify", "application/json", []byte(`{"exe":"job","path":"`+bin+`"}`))
			}},
			{"batch items", 2, true, false, func() []byte {
				return post("/v1/classify/batch", "application/json", []byte(
					`{"samples":[{"exe":"job","binary_b64":"`+b64+`"},{"exe":"job","path":"`+bin+`"}]}`))
			}},
			{"hash-first hit", 1, false, true, func() []byte {
				return post("/v1/classify", "application/json", []byte(`{"sha256":"`+hex.EncodeToString(sum[:])+`"}`))
			}},
		}
		for _, p := range paths {
			obs0, off0, hits0 := counters()
			answers := decode(p.call())
			obs1, off1, hits1 := counters()
			if len(answers) != p.verdict {
				t.Fatalf("%s %s: %d answers, want %d", p.name, bin, len(answers), p.verdict)
			}
			for _, got := range answers {
				if got != want[bin] {
					t.Fatalf("%s %s: answered %+v, in-process classifier %+v", p.name, bin, got, want[bin])
				}
			}
			if d := obs1 - obs0; d != float64(p.verdict) {
				t.Fatalf("%s: drift observations moved by %v, want %d", p.name, d, p.verdict)
			}
			wantOffered := 0
			if p.harvest {
				wantOffered = p.verdict
			}
			if d := off1 - off0; d != float64(wantOffered) {
				t.Fatalf("%s: harvested+skipped moved by %v, want %d", p.name, d, wantOffered)
			}
			wantHits := 0
			if p.hash {
				wantHits = 1
			}
			if d := hits1 - hits0; d != float64(wantHits) {
				t.Fatalf("%s: hash-first hits moved by %v, want %d", p.name, d, wantHits)
			}
		}
	}

	stdinW.Close() // end of the finite stream: serve drains HTTP and exits
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("serve did not exit at the end of its stream")
	}
}
