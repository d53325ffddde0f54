package cluster_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/httpserve"
	"repro/internal/retrain"
)

// gateProbes returns a rollout Gate that posts one inline-b64 classify
// body per binary to the canary and demands a 200 for each.
func gateProbes(t testing.TB, bins ...[]byte) func(*cluster.Worker) error {
	t.Helper()
	var bodies [][]byte
	for _, bin := range bins {
		b, err := json.Marshal(httpserve.ClassifyRequest{
			Exe: "gate", BinaryB64: base64.StdEncoding.EncodeToString(bin),
		})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	return func(canary *cluster.Worker) error {
		for i, body := range bodies {
			resp, err := http.Post(canary.URL()+"/v1/classify", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("gate probe %d answered %d", i, resp.StatusCode)
			}
		}
		return nil
	}
}

// swapVia drives the router's rollout endpoint.
func swapVia(t testing.TB, base, artifact string) (int, []byte) {
	t.Helper()
	code, body, _ := postJSON(t, base+"/v1/model/swap", httpserve.SwapRequest{Path: artifact})
	return code, body
}

// assertFleetServes checks every shard answers bit-identically to clf
// for every fixture binary, routed through the router.
func assertFleetServes(t testing.TB, c *clustertest.Cluster, label string, want map[int][3]any) {
	t.Helper()
	for i, bin := range fixBins {
		resp, _ := classifyInline(t, c.URL(), bin)
		w := want[i]
		if resp.Label != w[0] || resp.Class != w[1] || resp.Confidence != w[2] {
			t.Fatalf("%s: bin %d served {%s %s %v}, want {%v %v %v}",
				label, i, resp.Label, resp.Class, resp.Confidence, w[0], w[1], w[2])
		}
	}
}

// modelWant builds the expected per-binary answers straight from the
// classifiers — the differential baseline every rollout assertion
// compares against.
func modelWant(t testing.TB, kind string) map[int][3]any {
	t.Helper()
	fixture(t)
	clf := fixRF
	if kind == "knn" {
		clf = fixKNN
	}
	want := map[int][3]any{}
	for i := range fixSamples {
		p := clf.Classify(&fixSamples[i])
		want[i] = [3]any{p.Label, p.Class, p.Confidence}
	}
	return want
}

// TestRolloutStagedSuccess promotes the knn artifact across the fleet:
// canary, gate, expansion, promote — then proves every shard serves
// the new model bit-identically and the incumbent advanced.
func TestRolloutStagedSuccess(t *testing.T) {
	fixture(t)
	c := clustertest.Start(t, clustertest.Options{
		Model: fixRF,
		Cluster: cluster.Options{
			HedgeAfter:        -1,
			IncumbentArtifact: fixRFPath,
			Gate:              gateProbes(t, fixBins[0], fixBins[1]),
		},
	})
	c.WaitReady(t, 3, 5*time.Second)
	assertFleetServes(t, c, "pre-rollout incumbent", modelWant(t, "rf"))

	code, body := swapVia(t, c.URL(), fixKNNPath)
	if code != http.StatusOK {
		t.Fatalf("rollout status %d: %s", code, body)
	}
	var st cluster.RolloutStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "promoted" || len(st.Swapped) != 3 || st.Canary == "" {
		t.Fatalf("rollout status: %+v", st)
	}
	if st.Swapped[0] != st.Canary {
		t.Fatalf("canary %s did not swap first: %v", st.Canary, st.Swapped)
	}
	for _, w := range c.Workers {
		if swaps := w.Engine.Stats().Swaps; swaps != 1 {
			t.Fatalf("worker %s swapped %d times, want 1", w.Name, swaps)
		}
	}
	assertFleetServes(t, c, "post-rollout candidate", modelWant(t, "knn"))
	if inc := c.Router.Coordinator().Status().Incumbent; inc != fixKNNPath {
		t.Fatalf("incumbent after promote = %q, want %q", inc, fixKNNPath)
	}

	// The promoted artifact is the next rollout's rollback target:
	// rolling back to rf is itself a staged rollout now.
	if code, body := swapVia(t, c.URL(), fixRFPath); code != http.StatusOK {
		t.Fatalf("return rollout status %d: %s", code, body)
	}
	assertFleetServes(t, c, "post-return incumbent", modelWant(t, "rf"))
}

// TestRolloutPoisonedCanary feeds the rollout a corrupt artifact: the
// canary swap fails, the rollout rolls back, and — the acceptance
// criterion — every shard keeps serving the incumbent bit-identically.
func TestRolloutPoisonedCanary(t *testing.T) {
	fixture(t)
	dir := t.TempDir()
	poisoned := filepath.Join(dir, "poisoned.json")
	if err := os.WriteFile(poisoned, []byte("{\"model_kind\":\"rf\",\"payload\":"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := clustertest.Start(t, clustertest.Options{
		Model: fixRF,
		Cluster: cluster.Options{
			HedgeAfter:        -1,
			IncumbentArtifact: fixRFPath,
		},
	})
	c.WaitReady(t, 3, 5*time.Second)

	code, body := swapVia(t, c.URL(), poisoned)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("poisoned rollout status %d: %s", code, body)
	}
	var st cluster.RolloutStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "rolled_back" || !st.RolledBack {
		t.Fatalf("poisoned rollout did not roll back: %+v", st)
	}
	if !strings.Contains(st.Error, "canary swap") {
		t.Fatalf("rollout error %q does not name the canary swap", st.Error)
	}
	// The fleet serves the incumbent bit-identically, and the rollout
	// never reached past the canary.
	assertFleetServes(t, c, "post-rollback incumbent", modelWant(t, "rf"))
	if inc := c.Router.Coordinator().Status().Incumbent; inc != fixRFPath {
		t.Fatalf("incumbent changed on a failed rollout: %q", inc)
	}
	m := scrapeMetrics(t, c.URL())
	if !strings.Contains(m, `fhc_cluster_rollouts_total{outcome="rolled_back"} 1`) {
		t.Fatalf("rollback not counted:\n%s", m)
	}
}

// TestRolloutCanaryGateChecksReadiness swaps a canary that accepts the
// swap and then stops being ready: with no Gate hook configured —
// exactly how fhc route runs — the gate must still refuse
// to promote it and roll the canary back.
func TestRolloutCanaryGateChecksReadiness(t *testing.T) {
	var mu sync.Mutex
	var swaps []string
	swapped := false
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch r.URL.Path {
		case "/readyz":
			if swapped {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
		case "/v1/model/swap":
			var req httpserve.SwapRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				w.WriteHeader(http.StatusBadRequest)
				return
			}
			swaps = append(swaps, req.Path)
			swapped = true
			w.Write([]byte("{}"))
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer worker.Close()
	rt, err := cluster.New([]cluster.WorkerSpec{{Name: "w0", URL: worker.URL}}, cluster.Options{
		HedgeAfter:        -1,
		IncumbentArtifact: "incumbent.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	st, err := rt.Coordinator().Rollout("candidate.json")
	if !errors.Is(err, cluster.ErrRolloutFailed) {
		t.Fatalf("rollout over an unready canary returned %v (%+v), want ErrRolloutFailed", err, st)
	}
	if st.State != "rolled_back" || !st.RolledBack {
		t.Fatalf("unready canary not rolled back: %+v", st)
	}
	if !strings.Contains(st.Error, "canary gate") {
		t.Fatalf("rollout error %q does not name the canary gate", st.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(swaps) != 2 || swaps[0] != "candidate.json" || swaps[1] != "incumbent.json" {
		t.Fatalf("canary swaps = %q, want the candidate then the incumbent", swaps)
	}
	if inc := rt.Coordinator().Status().Incumbent; inc != "incumbent.json" {
		t.Fatalf("incumbent changed on a failed rollout: %q", inc)
	}
}

// TestRolloutMidExpandFailure fails the rollout after the canary and
// one follower already swapped (worker 2 confines swaps to a model dir
// that lacks the candidate): every attempted shard must roll back to
// the incumbent, leaving zero shards on the candidate.
func TestRolloutMidExpandFailure(t *testing.T) {
	fixture(t)
	// Two artifact dirs: A holds the incumbent, B the candidate. Worker
	// 2 only accepts artifacts under A, so the expansion dies there.
	dirA, dirB := t.TempDir(), t.TempDir()
	rfA, err := copyFile(fixRFPath, filepath.Join(dirA, "rf.json"))
	if err != nil {
		t.Fatal(err)
	}
	knnB, err := copyFile(fixKNNPath, filepath.Join(dirB, "knn.json"))
	if err != nil {
		t.Fatal(err)
	}
	c := clustertest.Start(t, clustertest.Options{
		Model: fixRF,
		Cluster: cluster.Options{
			HedgeAfter:        -1,
			IncumbentArtifact: rfA,
		},
		PerWorker: func(i int, opt *httpserve.Options) {
			if i == 2 {
				opt.ModelDir = dirA
			}
		},
	})
	c.WaitReady(t, 3, 5*time.Second)

	code, body := swapVia(t, c.URL(), knnB)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("mid-expand rollout status %d: %s", code, body)
	}
	var st cluster.RolloutStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "rolled_back" || !strings.Contains(st.Error, "expand w2") {
		t.Fatalf("mid-expand rollout status: %+v", st)
	}
	// w0 and w1 swapped to the candidate then back (2 swaps); w2's
	// candidate swap was refused, then the rollback swap landed (1).
	wantSwaps := []uint64{2, 2, 1}
	for i, w := range c.Workers {
		if swaps := w.Engine.Stats().Swaps; swaps != wantSwaps[i] {
			t.Fatalf("worker %s swapped %d times, want %d", w.Name, swaps, wantSwaps[i])
		}
	}
	assertFleetServes(t, c, "post-mid-expand-rollback", modelWant(t, "rf"))
}

// TestRolloutRefusals pins the two refusal paths: no incumbent
// configured, and a rollout already in flight.
func TestRolloutRefusals(t *testing.T) {
	fixture(t)
	release := make(chan struct{})
	entered := make(chan struct{})
	c := clustertest.Start(t, clustertest.Options{
		Model: fixRF,
		Cluster: cluster.Options{
			HedgeAfter:        -1,
			IncumbentArtifact: fixRFPath,
			Gate: func(*cluster.Worker) error {
				close(entered)
				<-release
				return nil
			},
		},
	})
	c.WaitReady(t, 3, 5*time.Second)

	done := make(chan error, 1)
	go func() {
		_, err := c.Router.Coordinator().Rollout(fixKNNPath)
		done <- err
	}()
	<-entered
	// Second rollout while the first sits in the gate: refused busy,
	// over HTTP as a 409.
	if _, err := c.Router.Coordinator().Rollout(fixRFPath); !errors.Is(err, cluster.ErrRolloutBusy) {
		t.Fatalf("concurrent rollout error = %v, want ErrRolloutBusy", err)
	}
	code, body := swapVia(t, c.URL(), fixRFPath)
	if code != http.StatusConflict {
		t.Fatalf("concurrent rollout over HTTP: status %d: %s", code, body)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("first rollout failed: %v", err)
	}

	// No incumbent: refused outright, nothing swapped.
	c2 := clustertest.Start(t, clustertest.Options{
		Model:   fixRF,
		Cluster: cluster.Options{HedgeAfter: -1},
	})
	if _, err := c2.Router.Coordinator().Rollout(fixKNNPath); !errors.Is(err, cluster.ErrNoIncumbent) {
		t.Fatalf("no-incumbent rollout error = %v, want ErrNoIncumbent", err)
	}
	if code, body := swapVia(t, c2.URL(), fixKNNPath); code != http.StatusConflict {
		t.Fatalf("no-incumbent rollout over HTTP: status %d: %s", code, body)
	}
	for _, w := range c2.Workers {
		if swaps := w.Engine.Stats().Swaps; swaps != 0 {
			t.Fatalf("refused rollout still swapped %s %d times", w.Name, swaps)
		}
	}
}

// TestArtifactWatcher wires the retrainer auto-promote path: a new
// artifact appearing behind the retrain "latest" pointer triggers a
// staged rollout of exactly that artifact, once.
func TestArtifactWatcher(t *testing.T) {
	fixture(t)
	dir := t.TempDir()
	c := clustertest.Start(t, clustertest.Options{
		Model: fixRF,
		Cluster: cluster.Options{
			HedgeAfter:        -1,
			IncumbentArtifact: fixRFPath,
		},
	})
	c.WaitReady(t, 3, 5*time.Second)
	if err := c.Router.Coordinator().WatchArtifacts(dir, 25*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// A second watcher is refused: one auto-promote loop per router.
	if err := c.Router.Coordinator().WatchArtifacts(dir, 25*time.Millisecond); err == nil {
		t.Fatal("second WatchArtifacts did not refuse")
	}

	// Publish a new artifact the way the retrainer does: artifact file
	// first, then the pointer.
	name := "model-20260808-120000.json"
	if _, err := copyFile(fixKNNPath, filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, retrain.LatestPointerName), []byte(name+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Router.Coordinator().Status()
		if st.State == "promoted" && st.Artifact == filepath.Join(dir, name) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watcher never promoted the new artifact; status %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	assertFleetServes(t, c, "watcher-promoted candidate", modelWant(t, "knn"))
}

// copyFile copies src to dst and returns dst.
func copyFile(src, dst string) (string, error) {
	b, err := os.ReadFile(src)
	if err != nil {
		return "", err
	}
	return dst, os.WriteFile(dst, b, 0o644)
}
