package core

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/openset"
	"repro/internal/par"
)

// Classifier is a trained Fuzzy Hash Classifier.
type Classifier struct {
	cfg      Config
	profiles *profileSet
	mdl      model.Model

	// threshold is the confidence cut-off, stored as float bits so
	// SetThreshold is safe while another goroutine serves predictions.
	threshold atomic.Uint64

	// calibration is the installed open-set abstention policy; nil
	// keeps the raw closed-set behaviour. Atomic for the same reason as
	// threshold: SetCalibration may run while another goroutine serves,
	// and each prediction reads one consistent policy.
	calibration atomic.Pointer[openset.Calibration]

	// tuning is the threshold sweep recorded during training (Figure 3);
	// nil when the threshold was fixed by configuration.
	tuning []ThresholdScore
}

// ThresholdScore is one point of the confidence-threshold sweep.
type ThresholdScore struct {
	// Threshold is the confidence cut-off.
	Threshold float64
	// Scores are the micro/macro/weighted f1 values on the inner
	// validation split.
	Scores ml.F1Scores
}

// Train fits a Fuzzy Hash Classifier on the labelled training samples.
func Train(samples []dataset.Sample, cfg Config) (*Classifier, error) {
	cfg = cfg.withDefaults()
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: no training samples")
	}
	// Fail on a bad model kind before any featurisation or tuning work.
	if err := model.Validate(cfg.Model); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// A forest-parameter grid cannot tune another model kind; rejecting
	// it beats silently running a search the caller never gets.
	if cfg.Grid != nil && cfg.Model != model.KindRF && cfg.Grid.hasForestDims() {
		return nil, fmt.Errorf("core: Grid forest parameters apply only to the %q model kind; sweep only Thresholds with %q",
			model.KindRF, cfg.Model)
	}
	dist, err := cfg.Distance.Resolve()
	if err != nil {
		return nil, err
	}

	classSet := map[string]bool{}
	for i := range samples {
		if samples[i].Class == "" || samples[i].Class == UnknownLabel {
			return nil, fmt.Errorf("core: training sample %d has invalid class %q", i, samples[i].Class)
		}
		classSet[samples[i].Class] = true
	}
	if len(classSet) < 2 {
		return nil, fmt.Errorf("core: need at least 2 training classes, got %d", len(classSet))
	}
	classes := make([]string, 0, len(classSet))
	for c := range classSet {
		classes = append(classes, c)
	}
	sort.Strings(classes)

	c := &Classifier{cfg: cfg}
	c.SetThreshold(cfg.Threshold)
	if c.profiles, err = buildProfiles(samples, cfg.Features, classes, dist); err != nil {
		return nil, err
	}

	// Hyper-parameter and threshold tuning on an inner split of the
	// training set (the paper tunes "only within the training set").
	forestParams := cfg.Forest
	needTuning := cfg.Grid != nil || cfg.Threshold == 0
	if needTuning {
		grid := cfg.Grid
		if grid == nil {
			grid = &Grid{Thresholds: defaultThresholds()}
		}
		best, curve, err := tune(samples, cfg, dist, grid)
		if err != nil {
			return nil, fmt.Errorf("core: tuning: %w", err)
		}
		forestParams = best.params
		if cfg.Threshold == 0 {
			c.SetThreshold(best.threshold)
		}
		c.tuning = curve
	}

	// Final fit on the full training set.
	X := c.profiles.featurizeBatch(samples, cfg.Workers)
	y := c.Labels(samples)
	forestParams.Balanced = true
	forestParams.Workers = cfg.Workers
	mdl, err := model.Train(cfg.Model, X, y, len(classes), model.Options{
		Forest: forestParams,
		KNN:    cfg.KNN,
		SVM:    cfg.SVM,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	c.mdl = mdl
	return c, nil
}

// Classes returns the known class labels in model order.
func (c *Classifier) Classes() []string {
	return append([]string(nil), c.profiles.classes...)
}

// ModelKind returns the kind tag of the fitted model ("rf", "knn" or
// "svm").
func (c *Classifier) ModelKind() string {
	return c.cfg.Model
}

// Threshold returns the confidence threshold in effect.
func (c *Classifier) Threshold() float64 {
	return math.Float64frombits(c.threshold.Load())
}

// SetThreshold overrides the confidence threshold; the paper describes
// raising it to capture more unknown samples at the cost of precision.
// It is safe to call while other goroutines classify: each prediction
// reads the threshold atomically, exactly once.
func (c *Classifier) SetThreshold(t float64) {
	c.threshold.Store(math.Float64bits(t))
}

// Calibration returns the installed open-set calibration, or nil when
// the classifier decides closed-set.
func (c *Classifier) Calibration() *openset.Calibration {
	return c.calibration.Load()
}

// SetCalibration installs (or, with nil, removes) the open-set
// abstention policy. The calibration's class list must match the
// classifier's exactly — a policy tuned for another model would index
// the wrong floors. It is safe to call while other goroutines
// classify: each prediction reads one consistent policy atomically.
// Prefer Calibrate, which tunes and installs in one step; SetCalibration
// is the install path for policies loaded from artifacts.
func (c *Classifier) SetCalibration(cal *openset.Calibration) error {
	if cal != nil {
		if len(cal.Classes) != len(c.profiles.classes) {
			return fmt.Errorf("core: calibration has %d classes, classifier has %d",
				len(cal.Classes), len(c.profiles.classes))
		}
		for i, class := range cal.Classes {
			if class != c.profiles.classes[i] {
				return fmt.Errorf("core: calibration class %d is %q, classifier has %q",
					i, class, c.profiles.classes[i])
			}
		}
	}
	c.calibration.Store(cal)
	return nil
}

// TuningCurve returns the recorded threshold sweep (Figure 3), or nil if
// the threshold was fixed.
func (c *Classifier) TuningCurve() []ThresholdScore {
	return append([]ThresholdScore(nil), c.tuning...)
}

// Featurize exposes the similarity feature vector of a sample, mainly for
// the model-comparison ablations that train other classifiers on the same
// features.
func (c *Classifier) Featurize(s *dataset.Sample) []float64 {
	return c.profiles.featurize(s)
}

// FeaturizeBatch featurises samples in parallel.
func (c *Classifier) FeaturizeBatch(samples []dataset.Sample) [][]float64 {
	return c.profiles.featurizeBatch(samples, c.cfg.Workers)
}

// Labels encodes training-style integer labels for samples against this
// classifier's class list; unknown classes map to -1.
func (c *Classifier) Labels(samples []dataset.Sample) []int {
	return labelsOf(samples, c.profiles.classes)
}

// labelsOf encodes each sample's class as its index in classes, or -1
// when classes does not hold it.
func labelsOf(samples []dataset.Sample, classes []string) []int {
	idx := make(map[string]int, len(classes))
	for i, cl := range classes {
		idx[cl] = i
	}
	out := make([]int, len(samples))
	for i := range samples {
		if v, ok := idx[samples[i].Class]; ok {
			out[i] = v
		} else {
			out[i] = -1
		}
	}
	return out
}

// Classify predicts the application class of one sample.
func (c *Classifier) Classify(s *dataset.Sample) Prediction {
	return c.PredictFromProba(c.predictWide(s))
}

// ClassifyBatch predicts many samples with a bounded worker pool.
func (c *Classifier) ClassifyBatch(samples []dataset.Sample) []Prediction {
	probas := c.PredictProbaBatch(samples)
	out := make([]Prediction, len(samples))
	for i := range probas {
		out[i] = c.PredictFromProba(probas[i])
	}
	return out
}

// PredictProbaBatch returns predictWide's row for each sample, computed
// on a bounded worker pool. ClassifyBatch and calibration build on it:
// they apply the threshold and calibration per row with
// PredictFromProba.
func (c *Classifier) PredictProbaBatch(samples []dataset.Sample) [][]float64 {
	out := make([][]float64, len(samples))
	par.Map(len(samples), c.cfg.Workers, func(i int) { out[i] = c.predictWide(&samples[i]) })
	return out
}

// predictWide is the one per-sample prediction step every classify path
// shares: featurise the sample, run the model, and widen its
// class-probability vector with the per-class distance evidence. The
// row has 2×|classes| columns — probabilities in model class order,
// then each class's best fuzzy-hash similarity to the sample (the
// open-set evidence channel) — and no threshold applied.
func (c *Classifier) predictWide(s *dataset.Sample) []float64 {
	x := c.profiles.featurize(s)
	return c.profiles.appendEvidence(c.mdl.PredictProba(x), x)
}

// PredictFromProba applies the confidence threshold — and, when a
// calibration is installed, the open-set abstention rule — to one
// probability vector in model class order. It accepts both the widened
// 2×|classes| rows PredictProbaBatch produces and bare |classes|
// probability vectors (no evidence channel: the evidence floor is then
// skipped and Evidence reports openset.FloorUnset). The raw closed-set
// decision (decide) stays the differential oracle: with no calibration
// installed the answer is bit-identical to it.
//
// fhc:hotpath
func (c *Classifier) PredictFromProba(proba []float64) Prediction {
	classes := c.profiles.classes
	probs := proba
	var ev []float64
	if n := len(classes); len(proba) == 2*n {
		probs, ev = proba[:n], proba[n:]
	}
	pred := decide(probs, classes, c.Threshold())
	pred.Margin, pred.Evidence = marginEvidence(probs, ev)
	if cal := c.calibration.Load(); cal != nil {
		d := cal.Decide(probs, ev)
		if pred.Label == UnknownLabel || d.Verdict == openset.VerdictUnknown {
			// Either side abstaining abstains: the raw threshold may sit
			// above the calibration's recorded one (the operator can raise
			// it live), and the calibrated floors catch what raw
			// confidence cannot. Label and verdict always agree.
			pred.Verdict = openset.VerdictUnknown
			pred.Label = UnknownLabel
		} else {
			pred.Verdict = d.Verdict
		}
	}
	return pred
}

// marginEvidence derives the probability margin (top-1 minus top-2)
// and the best class's evidence from one probability vector; evidence
// is openset.FloorUnset when no evidence channel is present. It picks
// the winner with openset.Argmax2, as decide does, so the two always
// describe the same winning class.
//
// fhc:hotpath
func marginEvidence(probs, ev []float64) (margin, evidence float64) {
	best, p1, p2 := openset.Argmax2(probs)
	evidence = openset.FloorUnset
	if best < len(ev) {
		evidence = ev[best]
	}
	return p1 - p2, evidence
}

// decide is the single thresholding rule shared by serving-time
// prediction and training-time tuning: the most probable class wins
// (openset.Argmax2), and confidence below the threshold demotes the
// label to UnknownLabel.
func decide(proba []float64, classes []string, threshold float64) Prediction {
	best, bestP, _ := openset.Argmax2(proba)
	pred := Prediction{
		Class:      classes[best],
		Confidence: bestP,
	}
	if bestP < threshold {
		pred.Label = UnknownLabel
	} else {
		pred.Label = pred.Class
	}
	return pred
}

// GroundTruth maps samples to evaluation labels: the class name when the
// classifier knows the class, UnknownLabel otherwise — exactly how the
// paper scores its test set (Table 4's "-1" row).
func (c *Classifier) GroundTruth(samples []dataset.Sample) []string {
	return groundTruth(samples, c.profiles.classes)
}

// groundTruth is GroundTruth against the known classes.
func groundTruth(samples []dataset.Sample, classes []string) []string {
	out := make([]string, len(samples))
	for i, ci := range labelsOf(samples, classes) {
		out[i] = UnknownLabel
		if ci >= 0 {
			out[i] = samples[i].Class
		}
	}
	return out
}

// Evaluate classifies samples and scores them against the ground truth,
// producing the paper's classification report.
func (c *Classifier) Evaluate(samples []dataset.Sample) (*ml.Report, error) {
	preds := c.ClassifyBatch(samples)
	yPred := make([]string, len(preds))
	for i := range preds {
		yPred[i] = preds[i].Label
	}
	return ml.ClassificationReport(c.GroundTruth(samples), yPred)
}

// FeatureImportance aggregates the model's per-column importances over
// each fuzzy-hash feature's column group and normalises to 1 — the
// paper's Table 5. It returns nil for model kinds that expose no
// importances (the paper selects the Random Forest partly for this
// capability).
func (c *Classifier) FeatureImportance() map[string]float64 {
	imp, ok := c.mdl.(model.Importancer)
	if !ok {
		return nil
	}
	importances := imp.Importances()
	n := len(c.profiles.classes)
	out := make(map[string]float64, len(c.profiles.features))
	total := 0.0
	for k, kind := range c.profiles.features {
		sum := 0.0
		for _, v := range importances[k*n : (k+1)*n] {
			sum += v
		}
		out[kind.String()] = sum
		total += sum
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out
}
