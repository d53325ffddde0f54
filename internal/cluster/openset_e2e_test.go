package cluster_test

import (
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/core"
	"repro/internal/httpserve"
	"repro/internal/openset"
	"repro/internal/synth"
)

// TestE2EDriftingShardAlarmsOnce is the fleet-wide drift drill: three
// workers serve a calibrated model, one shard receives novel-class
// traffic behind the router's back while the rest see the healthy
// population. Exactly one drift alarm may fire across the whole fleet —
// the drifting shard's, latched once — because a population shift on
// one shard must page once, not once per scrape and not on shards whose
// traffic is healthy.
func TestE2EDriftingShardAlarmsOnce(t *testing.T) {
	fixture(t)
	calClf, err := core.LoadFile(fixRFPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := calClf.Calibrate(fixSamples, openset.CalibrateOptions{}); err != nil {
		t.Fatal(err)
	}

	dets := make([]*openset.Detector, 3)
	c := clustertest.Start(t, clustertest.Options{
		Model: calClf,
		Cluster: cluster.Options{
			IncumbentArtifact: fixRFPath,
			HedgeAfter:        -1,
			HealthInterval:    100 * time.Millisecond,
			HealthTimeout:     3 * time.Second,
		},
		PerWorker: func(i int, opt *httpserve.Options) {
			dets[i] = openset.NewDetector(calClf.Calibration().Baseline, openset.DriftOptions{
				Window: 32, MinSamples: 8,
			})
			opt.Drift = dets[i]
		},
	})
	c.WaitReady(t, 3, 5*time.Second)

	// Healthy traffic through the router: the calibration population,
	// spread across shards by content affinity.
	for round := 0; round < 3; round++ {
		for n, bin := range fixBins {
			if _, err := e2eClassify(c.URL(), bin, n%2 == 0); err != nil {
				t.Fatalf("healthy request: %v", err)
			}
		}
	}

	// Novel-class traffic straight at shard w1, bypassing the router:
	// only that shard's population drifts.
	corpus, err := synth.Generate([]synth.ClassSpec{
		{Name: "Delta", Samples: 40},
	}, synth.Options{Seed: 4242})
	if err != nil {
		t.Fatal(err)
	}
	drifting := "http://" + c.Workers[1].Addr
	for n := range corpus.Samples {
		if _, err := e2eClassify(drifting, corpus.Samples[n].Binary, n%2 == 0); err != nil {
			t.Fatalf("drifting request %d: %v", n, err)
		}
	}

	total := uint64(0)
	for i, det := range dets {
		st := det.State()
		total += st.Alarms
		if i != 1 && st.Alarms != 0 {
			t.Errorf("healthy shard w%d alarmed %d times: %+v", i, st.Alarms, st)
		}
	}
	if total != 1 {
		t.Fatalf("fleet fired %d drift alarms for one drifting shard, want exactly 1", total)
	}
	if st := dets[1].State(); !st.Alarmed {
		t.Fatalf("drifting shard's alarm not latched: %+v", st)
	}
}

// TestE2ERolloutCarriesCalibration rolls the fleet from the raw
// incumbent to a calibrated artifact of the same model while load runs.
// Calibration atomicity fleet-wide: during the rollout every response
// is exactly one generation's answer — the raw incumbent's (no verdict)
// or the calibrated candidate's (verdict attached) — and after
// promotion every shard serves verdicts, so no shard is left running
// the new model with the old (absent) thresholds.
func TestE2ERolloutCarriesCalibration(t *testing.T) {
	fixture(t)
	calClf, err := core.LoadFile(fixRFPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := calClf.Calibrate(fixSamples, openset.CalibrateOptions{}); err != nil {
		t.Fatal(err)
	}
	calPath := filepath.Join(t.TempDir(), "rf-cal.json")
	if err := core.SaveFile(calPath, calClf); err != nil {
		t.Fatal(err)
	}

	c := clustertest.Start(t, clustertest.Options{
		Model: fixRF,
		Cluster: cluster.Options{
			HedgeAfter:        -1,
			IncumbentArtifact: fixRFPath,
			Gate:              gateProbes(t, fixBins[0]),
			HealthInterval:    100 * time.Millisecond,
			HealthTimeout:     3 * time.Second,
		},
	})
	c.WaitReady(t, 3, 5*time.Second)

	// Expected full tuples per binary, per generation: same model, so
	// only the verdict separates them.
	type tuple struct {
		label, class, verdict string
		conf                  float64
	}
	wantRaw := make([]tuple, len(fixBins))
	wantCal := make([]tuple, len(fixBins))
	for i := range fixSamples {
		p := fixRF.Classify(&fixSamples[i])
		wantRaw[i] = tuple{p.Label, p.Class, string(p.Verdict), p.Confidence}
		p = calClf.Classify(&fixSamples[i])
		wantCal[i] = tuple{p.Label, p.Class, string(p.Verdict), p.Confidence}
		if wantRaw[i].verdict != "" || wantCal[i].verdict == "" {
			t.Fatalf("generations not separated by verdict: raw %+v cal %+v", wantRaw[i], wantCal[i])
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
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
				got := tuple{resp.Label, resp.Class, resp.Verdict, resp.Confidence}
				if got != wantRaw[i] && got != wantCal[i] {
					t.Errorf("bin %d: %+v matches neither generation (raw %+v, cal %+v)",
						i, got, wantRaw[i], wantCal[i])
					return
				}
			}
		}(g)
	}

	time.Sleep(50 * time.Millisecond)
	code, body := swapVia(t, c.URL(), calPath)
	close(stop)
	wg.Wait()
	if code != http.StatusOK {
		t.Fatalf("rollout: %d %s", code, body)
	}
	if t.Failed() {
		t.Fatal("load saw a torn model/calibration pairing during the rollout")
	}

	// Post-promotion: every shard serves the calibrated generation.
	for i, bin := range fixBins {
		resp, shard := classifyInline(t, c.URL(), bin)
		got := tuple{resp.Label, resp.Class, resp.Verdict, resp.Confidence}
		if got != wantCal[i] {
			t.Fatalf("post-rollout bin %d via %s: %+v, want %+v", i, shard, got, wantCal[i])
		}
	}
}
