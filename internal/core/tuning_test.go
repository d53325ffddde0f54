package core

import (
	"encoding/json"
	"testing"

	"repro/internal/rf"
	"repro/internal/synth"

	"repro/internal/dataset"
)

// tuningSamples builds a corpus large enough for the inner two-phase
// split to carve out pseudo-unknown classes.
func tuningSamples(t *testing.T) []dataset.Sample {
	t.Helper()
	corpus, err := synth.Generate([]synth.ClassSpec{
		{Name: "TunA", Samples: 8},
		{Name: "TunB", Samples: 8},
		{Name: "TunC", Samples: 8},
		{Name: "TunD", Samples: 8},
		{Name: "TunE", Samples: 8},
		{Name: "TunF", Samples: 8},
	}, synth.Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := dataset.FromCorpus(corpus, 0)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// forestParams reads the fitted forest's parameters back from the
// model's persisted JSON.
func forestParams(t *testing.T, c *Classifier) rf.Params {
	t.Helper()
	data, err := json.Marshal(c.mdl)
	if err != nil {
		t.Fatal(err)
	}
	var f struct{ Params rf.Params }
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f.Params
}

// TestGridSearchDeterministicAcrossWorkerCounts guards the parallelised
// grid search: the winning parameters, threshold and tuning curve must
// not depend on the worker count (completion order), only on grid order.
func TestGridSearchDeterministicAcrossWorkerCounts(t *testing.T) {
	samples := tuningSamples(t)
	grid := &Grid{
		NumTrees:        []int{20},
		MaxDepth:        []int{0, 6},
		MinSamplesSplit: []int{2, 4},
		Thresholds:      []float64{0.1, 0.3, 0.5, 0.7},
	}
	var base *Classifier
	for i, workers := range []int{1, 2, 8} {
		clf, err := Train(samples, Config{
			Grid:    grid,
			Seed:    77,
			Workers: workers,
			Forest:  rf.Params{NumTrees: 20},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			base = clf
			continue
		}
		if clf.Threshold() != base.Threshold() {
			t.Fatalf("workers=%d: threshold %v, want %v", workers, clf.Threshold(), base.Threshold())
		}
		got, want := forestParams(t, clf), forestParams(t, base)
		if got.MaxDepth != want.MaxDepth || got.MinSamplesSplit != want.MinSamplesSplit {
			t.Fatalf("workers=%d: winning params %+v, want %+v", workers, got, want)
		}
		gotCurve, wantCurve := clf.TuningCurve(), base.TuningCurve()
		if len(gotCurve) != len(wantCurve) {
			t.Fatalf("workers=%d: curve length %d, want %d", workers, len(gotCurve), len(wantCurve))
		}
		for j := range gotCurve {
			if gotCurve[j] != wantCurve[j] {
				t.Fatalf("workers=%d: curve point %d = %+v, want %+v",
					workers, j, gotCurve[j], wantCurve[j])
			}
		}
	}
}

// TestApplyThresholdMatchesDecide pins the collapsed thresholding rule:
// tuning-time label assignment and serving-time prediction share one
// implementation.
func TestApplyThresholdMatchesDecide(t *testing.T) {
	classes := []string{"a", "b", "c"}
	probas := [][]float64{
		{0.2, 0.5, 0.3},
		{0.9, 0.05, 0.05},
		{0.34, 0.33, 0.33},
	}
	for _, th := range []float64{0, 0.35, 0.6, 0.95} {
		labels := applyThreshold(probas, classes, th)
		for i, proba := range probas {
			want := decide(proba, classes, th)
			if labels[i] != want.Label {
				t.Fatalf("threshold %v sample %d: applyThreshold %q, decide %q",
					th, i, labels[i], want.Label)
			}
		}
	}
}
