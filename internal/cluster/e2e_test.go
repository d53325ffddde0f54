package cluster_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/httpserve"
)

// e2eClassify sends one classify request without t.Fatal, so the load
// goroutines can report failures instead of aborting the process.
// Even request numbers go inline-b64 JSON, odd ones raw octet-stream —
// the two protocols that always carry the binary, so every request is
// answerable by any shard regardless of cache state. (Hash-first is
// deliberately absent: after an ejection moves a key, a cache miss 404
// is a correct answer, not a lost request.)
func e2eClassify(base string, bin []byte, inline bool) (httpserve.ClassifyResponse, error) {
	var (
		resp *http.Response
		err  error
	)
	if inline {
		raw, merr := json.Marshal(httpserve.ClassifyRequest{
			Exe: "load", BinaryB64: base64.StdEncoding.EncodeToString(bin),
		})
		if merr != nil {
			return httpserve.ClassifyResponse{}, merr
		}
		resp, err = http.Post(base+"/v1/classify", "application/json", bytes.NewReader(raw))
	} else {
		resp, err = http.Post(base+"/v1/classify", "application/octet-stream", bytes.NewReader(bin))
	}
	if err != nil {
		return httpserve.ClassifyResponse{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return httpserve.ClassifyResponse{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return httpserve.ClassifyResponse{}, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var out httpserve.ClassifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return httpserve.ClassifyResponse{}, fmt.Errorf("unmarshal: %v (%q)", err, body)
	}
	return out, nil
}

// matches reports whether resp equals one model's expected answer for
// bin i, in full — label, class and confidence together, so a blended
// response (fields from two models) matches neither.
func matches(resp httpserve.ClassifyResponse, want [3]any) bool {
	return resp.Label == want[0] && resp.Class == want[1] && resp.Confidence == want[2]
}

// TestE2EKillShardMidLoad is the acceptance fault drill: three workers
// under concurrent load, one shard killed mid-load with TCP resets on
// every connection (in-flight included). Zero requests may be lost —
// every one of them must come back 200 with the incumbent model's
// exact answer — and the fleet must readmit the shard afterwards.
func TestE2EKillShardMidLoad(t *testing.T) {
	fixture(t)
	// The generous health timeout keeps probe starvation out of the
	// drill: under the race detector the loaded workers can hold a
	// readyz answer past the harness's 250ms default, and ejecting a
	// merely-slow shard is not the fault being injected. The health
	// interval outlasts the run up to the kill, a quarter of the load
	// (a few seconds even under the race detector), so no periodic
	// probe can eject the killed shard before load reaches it: the
	// first request routed there fails with an immediate RST, is
	// retried, and kicks the probe that ejects it. MaxBackoff keeps the
	// re-probes that readmit it within one interval.
	const interval = 10 * time.Second
	c := startCluster(t, cluster.Options{
		HedgeAfter:     150 * time.Millisecond,
		HealthInterval: interval,
		MaxBackoff:     interval,
		HealthTimeout:  3 * time.Second,
	})
	c.WaitReady(t, 3, 5*time.Second)
	want := modelWant(t, "rf")

	const goroutines = 8
	const perG = 40
	const total = goroutines * perG
	var done atomic.Int64
	var wg sync.WaitGroup
	killed := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				if g%2 == 1 && k == perG/2 {
					// Half the clients hold their second half until the
					// kill, so load reaches the fleet after it even when
					// the killer goroutine is scheduled late.
					<-killed
				}
				n := g*perG + k
				i := n % len(fixBins)
				resp, err := e2eClassify(c.URL(), fixBins[i], n%2 == 0)
				if err != nil {
					t.Errorf("request %d lost: %v", n, err)
				} else if !matches(resp, want[i]) {
					t.Errorf("request %d: bin %d served {%s %s %v}, want %v",
						n, i, resp.Label, resp.Class, resp.Confidence, want[i])
				}
				done.Add(1)
			}
		}(g)
	}

	// Kill shard w0 once the load is genuinely in flight: every current
	// and future connection through its proxy gets an immediate RST.
	for done.Load() < total/4 {
		time.Sleep(time.Millisecond)
	}
	c.Workers[0].Proxy.SetMode(clustertest.Reset)
	close(killed)
	wg.Wait()
	if t.Failed() {
		t.Fatalf("requests lost or corrupted with one shard down")
	}

	// The kill was observable: the router retried (or hedged) around
	// the dead shard rather than idling past the fault.
	st := c.Router.Stats()
	if st.Retries == 0 && st.HedgesFired == 0 {
		t.Fatalf("shard kill left no retry/hedge trace: %+v", st)
	}

	// Recovery: the shard heals, the prober readmits it, and affinity
	// routes its keys back.
	c.Workers[0].Proxy.SetMode(clustertest.Pass)
	c.WaitReady(t, 3, 2*interval)
	assertFleetServes(t, c, "post-recovery", want)
}

// TestE2ERolloutUnderLoad runs the staged rf→knn rollout while
// concurrent classify load hammers the router. The acceptance bar:
// zero dropped responses and zero blended responses — every answer is
// bit-identical to the incumbent's or the candidate's, never a mix —
// and after promotion the whole fleet serves the candidate.
func TestE2ERolloutUnderLoad(t *testing.T) {
	fixture(t)
	// Probe starvation under load would eject a healthy worker and make
	// the rollout skip it — by design, but not what this test drills —
	// so the health timeout sits far above the loaded readyz latency.
	c := startCluster(t, cluster.Options{
		HedgeAfter:     -1,
		Gate:           gateProbes(t, fixBins[0]),
		HealthInterval: 100 * time.Millisecond,
		HealthTimeout:  3 * time.Second,
	})
	c.WaitReady(t, 3, 5*time.Second)
	wantRF := modelWant(t, "rf")
	wantKNN := modelWant(t, "knn")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	const goroutines = 6
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := g; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := n % len(fixBins)
				resp, err := e2eClassify(c.URL(), fixBins[i], n%2 == 0)
				if err != nil {
					t.Errorf("load request dropped during rollout: %v", err)
					return
				}
				if !matches(resp, wantRF[i]) && !matches(resp, wantKNN[i]) {
					t.Errorf("blended response for bin %d: {%s %s %v} matches neither model",
						i, resp.Label, resp.Class, resp.Confidence)
					return
				}
			}
		}(g)
	}

	// Roll the fleet to the knn candidate while the load runs.
	time.Sleep(50 * time.Millisecond)
	code, body := swapVia(t, c.URL(), fixKNNPath)
	close(stop)
	wg.Wait()
	if code != http.StatusOK {
		t.Fatalf("rollout under load: status %d: %s", code, body)
	}
	if t.Failed() {
		t.Fatal("load saw dropped or blended responses during the rollout")
	}

	// Post-promotion: the fleet serves the candidate, uniformly.
	var st cluster.RolloutStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "promoted" {
		t.Fatalf("rollout under load ended %+v", st)
	}
	assertFleetServes(t, c, "post-rollout-under-load", wantKNN)
}

// TestE2EBatchDuringChurn scatters batches while a shard flaps: the
// per-item isolation contract holds fleet-wide — a dead shard turns
// into per-item retries against its ring successor, never a batch-level
// failure or a wrong answer.
func TestE2EBatchDuringChurn(t *testing.T) {
	fixture(t)
	c := startCluster(t, cluster.Options{
		HedgeAfter:     -1,
		HealthInterval: 100 * time.Millisecond,
		HealthTimeout:  3 * time.Second,
	})
	c.WaitReady(t, 3, 5*time.Second)
	want := modelWant(t, "rf")

	items := make([]httpserve.ClassifyRequest, len(fixBins))
	for i, bin := range fixBins {
		items[i] = httpserve.ClassifyRequest{
			Exe: "churn", BinaryB64: base64.StdEncoding.EncodeToString(bin),
		}
	}
	c.Workers[1].Proxy.SetMode(clustertest.Reset)
	defer c.Workers[1].Proxy.SetMode(clustertest.Pass)

	for round := 0; round < 3; round++ {
		code, body, _ := postJSON(t, c.URL()+"/v1/classify/batch", httpserve.BatchRequest{Samples: items})
		if code != http.StatusOK {
			t.Fatalf("round %d: batch status %d: %s", round, code, body)
		}
		var bresp httpserve.BatchResponse
		if err := json.Unmarshal(body, &bresp); err != nil {
			t.Fatal(err)
		}
		if len(bresp.Results) != len(items) {
			t.Fatalf("round %d: %d results for %d items", round, len(bresp.Results), len(items))
		}
		for i, res := range bresp.Results {
			if res.Error != "" {
				t.Fatalf("round %d: item %d errored %q with a live successor on the ring", round, i, res.Error)
			}
			if !matches(res, want[i]) {
				t.Fatalf("round %d: item %d served {%s %s %v}, want %v",
					round, i, res.Label, res.Class, res.Confidence, want[i])
			}
		}
	}
}
