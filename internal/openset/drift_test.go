package openset

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// healthyBaseline describes a population whose confidence mass sits in
// the top bin with a small unknown rate.
func healthyBaseline() Baseline {
	hist := make([]float64, BaselineBins)
	hist[BaselineBins-1] = 0.9
	hist[BaselineBins-2] = 0.08
	hist[0] = 0.02
	return Baseline{ConfidenceHist: hist, UnknownRate: 0.02, Samples: 500}
}

// feedHealthy drives n observations matching the healthy baseline.
func feedHealthy(d *Detector, n int) {
	for i := 0; i < n; i++ {
		switch {
		case i%50 == 0:
			d.Observe(VerdictUnknown, 0.05)
		case i%12 == 0:
			d.Observe(VerdictClass, 0.85)
		default:
			d.Observe(VerdictClass, 0.95)
		}
	}
}

// feedDrifting drives n observations from a shifted population: low
// confidence, heavy unknowns.
func feedDrifting(d *Detector, n int) {
	for i := 0; i < n; i++ {
		d.Observe(VerdictUnknown, 0.35)
	}
}

func TestOpenSetDriftHealthyTrafficStaysQuiet(t *testing.T) {
	d := NewDetector(healthyBaseline(), DriftOptions{Window: 100})
	feedHealthy(d, 1000)
	st := d.State()
	if st.Alarmed || st.Alarms != 0 {
		t.Fatalf("healthy traffic alarmed: %+v", st)
	}
	if st.Observations != 1000 {
		t.Fatalf("observations = %d, want 1000", st.Observations)
	}
}

// TestOpenSetDriftAlarmLatchesOnce is the exactly-once contract: a
// sustained excursion fires the alarm hook one single time, however
// long the drifting traffic continues.
func TestOpenSetDriftAlarmLatchesOnce(t *testing.T) {
	var mu sync.Mutex
	var reasons []string
	d := NewDetector(healthyBaseline(), DriftOptions{Window: 100})
	d.AddAlarmHook(func(reason string) {
		mu.Lock()
		reasons = append(reasons, reason)
		mu.Unlock()
	})
	feedHealthy(d, 200)
	feedDrifting(d, 500) // five windows of sustained drift
	st := d.State()
	if !st.Alarmed {
		t.Fatalf("sustained drift did not alarm: %+v", st)
	}
	if st.Alarms != 1 || len(reasons) != 1 {
		t.Fatalf("alarm fired %d times (%d hook calls), want exactly 1: %v",
			st.Alarms, len(reasons), reasons)
	}
	if !strings.Contains(reasons[0], "drift") {
		t.Fatalf("alarm reason %q does not name drift", reasons[0])
	}
}

// TestOpenSetDriftHysteresisRearms proves a full recovery re-arms the
// latch so the next excursion fires again — and that recovery alone
// fires nothing.
func TestOpenSetDriftHysteresisRearms(t *testing.T) {
	fired := 0
	d := NewDetector(healthyBaseline(), DriftOptions{Window: 100})
	d.AddAlarmHook(func(string) { fired++ })
	feedDrifting(d, 200)
	if fired != 1 {
		t.Fatalf("first excursion fired %d times, want 1", fired)
	}
	feedHealthy(d, 400) // statistics drop below threshold*hysteresis
	if d.State().Alarmed {
		t.Fatalf("alarm still latched after recovery: %+v", d.State())
	}
	if fired != 1 {
		t.Fatalf("recovery fired the alarm: %d", fired)
	}
	feedDrifting(d, 200)
	if fired != 2 {
		t.Fatalf("second excursion fired %d times total, want 2", fired)
	}
	if got := d.State().Alarms; got != 2 {
		t.Fatalf("alarm count %d, want 2", got)
	}
}

// TestOpenSetDriftSetBaselineResets proves a baseline swap clears the
// window, the latch and the statistics — post-swap traffic is judged
// only against the new expectation.
func TestOpenSetDriftSetBaselineResets(t *testing.T) {
	d := NewDetector(healthyBaseline(), DriftOptions{Window: 100})
	feedDrifting(d, 200)
	if !d.State().Alarmed {
		t.Fatal("drift did not alarm")
	}
	// New model expects exactly the traffic that alarmed the old one.
	hist := make([]float64, BaselineBins)
	hist[confidenceBin(0.35)] = 1
	d.Rebaseline(&Calibration{Baseline: Baseline{ConfidenceHist: hist, UnknownRate: 1, Samples: 500}})
	st := d.State()
	if st.Alarmed || st.WindowSize != 0 || st.ChiSquare != 0 || st.UnknownZ != 0 {
		t.Fatalf("Rebaseline did not reset: %+v", st)
	}
	feedDrifting(d, 500)
	if st := d.State(); st.Alarmed {
		t.Fatalf("traffic matching the new baseline alarmed: %+v", st)
	}
}

func TestOpenSetDriftMinSamplesGate(t *testing.T) {
	d := NewDetector(healthyBaseline(), DriftOptions{Window: 100, MinSamples: 50})
	feedDrifting(d, 49)
	if st := d.State(); st.Alarmed || st.ChiSquare != 0 {
		t.Fatalf("statistics ran below MinSamples: %+v", st)
	}
	feedDrifting(d, 1)
	if st := d.State(); !st.Alarmed {
		t.Fatalf("window at MinSamples did not evaluate: %+v", st)
	}
}

func TestOpenSetDriftAddAlarmHook(t *testing.T) {
	first, second := 0, 0
	d := NewDetector(healthyBaseline(), DriftOptions{Window: 100})
	d.AddAlarmHook(func(string) { first++ })
	d.AddAlarmHook(func(string) { second++ })
	d.AddAlarmHook(nil) // ignored
	feedDrifting(d, 200)
	if first != 1 || second != 1 {
		t.Fatalf("hooks fired %d/%d times, want 1/1", first, second)
	}
}

func TestOpenSetDriftMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	d := NewDetector(healthyBaseline(), DriftOptions{Window: 100, Registry: reg})
	feedHealthy(d, 100)
	d.Observe("", 0.9) // uncalibrated prediction counts as "none"
	feedDrifting(d, 200)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`fhc_openset_verdicts_total{verdict="class"}`,
		`fhc_openset_verdicts_total{verdict="unknown"}`,
		`fhc_openset_verdicts_total{verdict="none"} 1`,
		"fhc_drift_observations_total 301",
		"fhc_drift_alarms_total 1",
		"fhc_drift_state 1",
		"fhc_drift_chi_square",
		"fhc_drift_unknown_z",
		"fhc_drift_window_unknown_rate",
		"fhc_drift_baseline_unknown_rate",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output lacks %q", want)
		}
	}
}

// TestOpenSetDriftConcurrent hammers one detector from many goroutines;
// run under -race this is the concurrency contract.
func TestOpenSetDriftConcurrent(t *testing.T) {
	d := NewDetector(healthyBaseline(), DriftOptions{Window: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch {
				case g == 0 && i%100 == 0:
					d.Rebaseline(&Calibration{Baseline: healthyBaseline()})
				case g == 1 && i%200 == 0:
					d.AddAlarmHook(func(string) {})
				case i%3 == 0:
					d.Observe(VerdictUnknown, 0.3)
				default:
					d.Observe(VerdictClass, 0.95)
				}
				if i%50 == 0 {
					d.State()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := d.State().Observations; got == 0 {
		t.Fatal("no observations recorded")
	}
}

func TestOpenSetDriftObserveAllocs(t *testing.T) {
	reg := metrics.NewRegistry()
	d := NewDetector(healthyBaseline(), DriftOptions{Window: 64, Registry: reg})
	allocs := testing.AllocsPerRun(200, func() {
		d.Observe(VerdictClass, 0.95)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v times per call on the quiet path, want 0", allocs)
	}
}
