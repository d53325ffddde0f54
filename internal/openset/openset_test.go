package openset

import (
	"math"
	"testing"
)

// testCalibration is a hand-built, valid calibration over three classes
// with distinguishable per-class and global floors.
func testCalibration() *Calibration {
	hist := make([]float64, BaselineBins)
	hist[BaselineBins-1] = 1
	return &Calibration{
		Classes:             []string{"Alpha", "Beta", "Gamma"},
		Threshold:           0.5,
		MarginFloor:         []float64{0.10, FloorUnset, 0.30},
		EvidenceFloor:       []float64{40, FloorUnset, 60},
		GlobalMarginFloor:   0.20,
		GlobalEvidenceFloor: 50,
		Quantile:            0.01,
		Baseline:            Baseline{ConfidenceHist: hist, UnknownRate: 0.02, Samples: 100},
	}
}

func TestOpenSetArgmax2(t *testing.T) {
	cases := []struct {
		name   string
		probs  []float64
		best   int
		p1, p2 float64
	}{
		{"ordered", []float64{0.7, 0.2, 0.1}, 0, 0.7, 0.2},
		{"unordered", []float64{0.1, 0.2, 0.7}, 2, 0.7, 0.2},
		{"tie breaks to first index", []float64{0.4, 0.4, 0.2}, 0, 0.4, 0.4},
		{"single class clamps p2", []float64{1.0}, 0, 1.0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			best, p1, p2 := Argmax2(tc.probs)
			if best != tc.best || p1 != tc.p1 || p2 != tc.p2 {
				t.Fatalf("Argmax2(%v) = (%d, %v, %v), want (%d, %v, %v)",
					tc.probs, best, p1, p2, tc.best, tc.p1, tc.p2)
			}
		})
	}
}

func TestOpenSetDecide(t *testing.T) {
	cal := testCalibration()
	cases := []struct {
		name     string
		probs    []float64
		evidence []float64
		want     Verdict
		best     int
	}{
		{
			name:  "confident with strong evidence is class",
			probs: []float64{0.9, 0.05, 0.05}, evidence: []float64{80, 10, 10},
			want: VerdictClass, best: 0,
		},
		{
			name:  "below raw threshold is unknown",
			probs: []float64{0.4, 0.3, 0.3}, evidence: []float64{90, 90, 90},
			want: VerdictUnknown, best: 0,
		},
		{
			name:  "weak evidence under per-class floor is unknown",
			probs: []float64{0.9, 0.05, 0.05}, evidence: []float64{30, 10, 10},
			want: VerdictUnknown, best: 0,
		},
		{
			name:  "unset per-class evidence floor falls back to global",
			probs: []float64{0.05, 0.9, 0.05}, evidence: []float64{10, 45, 10},
			want: VerdictUnknown, best: 1, // 45 < global 50
		},
		{
			name:  "margin under per-class floor is ambiguous",
			probs: []float64{0.05, 0.05, 0.9}, evidence: []float64{10, 10, 90},
			// class 2 floor 0.30: margin 0.9-0.05=0.85 clears; shrink it
			want: VerdictClass, best: 2,
		},
		{
			name:  "competing classes are ambiguous",
			probs: []float64{0.52, 0.46, 0.02}, evidence: []float64{80, 80, 80},
			want: VerdictAmbiguous, best: 0, // margin 0.06 < per-class 0.10
		},
		{
			name:  "nil evidence skips the evidence floor",
			probs: []float64{0.9, 0.05, 0.05}, evidence: nil,
			want: VerdictClass, best: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := cal.Decide(tc.probs, tc.evidence)
			if d.Verdict != tc.want || d.Best != tc.best {
				t.Fatalf("Decide = %+v, want verdict %q best %d", d, tc.want, tc.best)
			}
			if tc.evidence == nil && d.Evidence != FloorUnset {
				t.Fatalf("Decide without evidence reported evidence %v", d.Evidence)
			}
		})
	}
}

func TestOpenSetDecideAllocs(t *testing.T) {
	cal := testCalibration()
	probs := []float64{0.9, 0.05, 0.05}
	evidence := []float64{80, 10, 10}
	allocs := testing.AllocsPerRun(100, func() {
		cal.Decide(probs, evidence)
	})
	if allocs != 0 {
		t.Fatalf("Decide allocates %v times per call, want 0", allocs)
	}
}

// TestOpenSetCalibrateProperties checks the calibrator's contract on a
// synthetic holdout: floors are set so the calibrated rule abstains on
// at most the quantile budget of correctly-classified samples, classes
// with too few samples fall back to global floors, and the baseline
// describes the whole holdout.
func TestOpenSetCalibrateProperties(t *testing.T) {
	classes := []string{"A", "B"}
	var probas, evidence [][]float64
	var labels []int
	// 100 correct class-A samples with margins 0.30..0.70 and evidence
	// 50..90; 4 class-B samples (below MinPerClass).
	for i := 0; i < 100; i++ {
		m := 0.30 + 0.4*float64(i)/99
		p1 := 0.5 + m/2
		probas = append(probas, []float64{p1, 1 - p1})
		evidence = append(evidence, []float64{50 + 40*float64(i)/99, 0})
		labels = append(labels, 0)
	}
	for i := 0; i < 4; i++ {
		probas = append(probas, []float64{0.2, 0.8})
		evidence = append(evidence, []float64{0, 70})
		labels = append(labels, 1)
	}
	// One misclassified A (argmax B) and one unknown-label row: both
	// must be excluded from floor tuning.
	probas = append(probas, []float64{0.3, 0.7})
	evidence = append(evidence, []float64{10, 5})
	labels = append(labels, 0)
	probas = append(probas, []float64{0.9, 0.1})
	evidence = append(evidence, []float64{1, 1})
	labels = append(labels, -1)

	cal, err := Calibrate(classes, probas, evidence, labels, CalibrateOptions{
		Quantile: 0.05, MinPerClass: 8, Threshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cal.MarginFloor[1] != FloorUnset || cal.EvidenceFloor[1] != FloorUnset {
		t.Fatalf("class B floors should be unset below MinPerClass: %v / %v",
			cal.MarginFloor[1], cal.EvidenceFloor[1])
	}
	if cal.MarginFloor[0] == FloorUnset {
		t.Fatal("class A floors should be tuned")
	}
	// The abstention budget: at most ~Quantile of the correct samples
	// fall strictly below their floors.
	abstained := 0
	for i := 0; i < 100; i++ {
		if d := cal.Decide(probas[i], evidence[i]); d.Verdict == VerdictUnknown {
			abstained++
		}
	}
	if abstained > 5 {
		t.Fatalf("calibrated rule abstains on %d/100 correct samples, budget 5", abstained)
	}
	// Baseline covers every known-label row (100 + 4 + 1 misclassified).
	if cal.Baseline.Samples != 105 {
		t.Fatalf("baseline over %d samples, want 105", cal.Baseline.Samples)
	}
	sum := 0.0
	for _, p := range cal.Baseline.ConfidenceHist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("baseline histogram sums to %v", sum)
	}
}

func TestOpenSetCalibrateErrors(t *testing.T) {
	valid := [][]float64{{0.9, 0.1}}
	ev := [][]float64{{80, 10}}
	cases := []struct {
		name    string
		classes []string
		probas  [][]float64
		ev      [][]float64
		labels  []int
		opt     CalibrateOptions
	}{
		{"no classes", nil, valid, ev, []int{0}, CalibrateOptions{}},
		{"shape mismatch", []string{"A", "B"}, valid, ev, []int{0, 1}, CalibrateOptions{}},
		{"label out of range", []string{"A", "B"}, valid, ev, []int{7}, CalibrateOptions{}},
		{"ragged row", []string{"A", "B", "C"}, valid, ev, []int{0}, CalibrateOptions{}},
		{"bad quantile", []string{"A", "B"}, valid, ev, []int{0}, CalibrateOptions{Quantile: 1.5}},
		{"no correct samples", []string{"A", "B"}, [][]float64{{0.1, 0.9}}, ev, []int{0}, CalibrateOptions{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Calibrate(tc.classes, tc.probas, tc.ev, tc.labels, tc.opt); err == nil {
				t.Fatal("Calibrate accepted invalid input")
			}
		})
	}
}

func TestOpenSetQuantile(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	if got := quantile(vs, 0); got != 1 {
		t.Fatalf("quantile 0 = %v, want 1", got)
	}
	if got := quantile(vs, 0.5); got != 3 {
		t.Fatalf("quantile 0.5 = %v, want 3", got)
	}
	// Lower interpolation: even q near 1 stays below the maximum.
	if got := quantile(vs, 0.999); got != 4 {
		t.Fatalf("quantile ~1 = %v, want 4", got)
	}
	// Input must not be reordered.
	if vs[0] != 5 || vs[4] != 3 {
		t.Fatalf("quantile mutated its input: %v", vs)
	}
}

func TestOpenSetConfidenceBin(t *testing.T) {
	for _, tc := range []struct {
		conf float64
		bin  int
	}{{-0.5, 0}, {0, 0}, {0.05, 0}, {0.15, 1}, {0.95, 9}, {1.0, 9}, {2.0, 9}} {
		if got := confidenceBin(tc.conf); got != tc.bin {
			t.Errorf("confidenceBin(%v) = %d, want %d", tc.conf, got, tc.bin)
		}
	}
}
