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
	"repro/internal/rf"
	"repro/ssdeep"
)

// Classifier is a trained Fuzzy Hash Classifier.
type Classifier struct {
	cfg      Config
	profiles *profileSet
	mdl      model.Model
	distance ssdeep.DistanceFunc

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
	dist, err := cfg.Distance.Func()
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

	c := &Classifier{cfg: cfg, distance: dist}
	c.SetThreshold(cfg.Threshold)
	c.profiles = buildProfiles(samples, cfg.Features, classes)

	// Hyper-parameter and threshold tuning on an inner split of the
	// training set (the paper tunes "only within the training set").
	forestParams := cfg.Forest
	needTuning := cfg.Grid != nil || cfg.Threshold == 0
	if needTuning {
		grid := cfg.Grid
		if grid == nil {
			grid = &Grid{Thresholds: defaultThresholds()}
		}
		best, curve, err := tune(samples, cfg, grid)
		if err != nil {
			return nil, fmt.Errorf("core: tuning: %w", err)
		}
		forestParams = best.params
		if cfg.Threshold == 0 {
			c.SetThreshold(best.threshold)
		}
		c.tuning = curve
	}

	// Final fit on the full training set, through the model registry.
	X := c.profiles.featurizeBatch(samples, dist, cfg.Workers)
	y := make([]int, len(samples))
	classIndex := make(map[string]int, len(classes))
	for i, cl := range classes {
		classIndex[cl] = i
	}
	for i := range samples {
		y[i] = classIndex[samples[i].Class]
	}
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

// ModelKind returns the registered kind tag of the fitted model ("rf",
// "knn", "svm", ...).
func (c *Classifier) ModelKind() string {
	return c.mdl.Kind()
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
	return c.profiles.featurize(s, c.distance)
}

// FeaturizeBatch featurises samples in parallel.
func (c *Classifier) FeaturizeBatch(samples []dataset.Sample) [][]float64 {
	return c.profiles.featurizeBatch(samples, c.distance, c.cfg.Workers)
}

// Labels encodes training-style integer labels for samples against this
// classifier's class list; unknown classes map to -1.
func (c *Classifier) Labels(samples []dataset.Sample) []int {
	idx := make(map[string]int, len(c.profiles.classes))
	for i, cl := range c.profiles.classes {
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
	x := c.profiles.featurize(s, c.distance)
	return c.PredictFromProba(c.profiles.appendEvidence(c.mdl.PredictProba(x), x))
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

// PredictProbaBatch featurises many samples and returns, for each, the
// model's class-probability vector widened with the per-class distance
// evidence: row i has 2×|classes| columns — probabilities in model
// class order, then each class's best fuzzy-hash similarity to the
// sample (the open-set evidence channel) — and no threshold applied.
// Together with PredictFromProba this is the narrow surface a serving
// layer needs to micro-batch classification: featurise and run the
// model in one window, then apply the (atomically read) threshold and
// calibration per delivered prediction.
func (c *Classifier) PredictProbaBatch(samples []dataset.Sample) [][]float64 {
	X := c.profiles.featurizeBatch(samples, c.distance, c.cfg.Workers)
	P := c.mdl.PredictProbaBatch(X, c.cfg.Workers)
	for i := range P {
		P[i] = c.profiles.appendEvidence(P[i], X[i])
	}
	return P
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
// is openset.FloorUnset when no evidence channel is present. The scan
// breaks ties exactly as decide does (first index wins), so the two
// always describe the same winning class.
//
// fhc:hotpath
func marginEvidence(probs, ev []float64) (margin, evidence float64) {
	best, p1, p2 := 0, -1.0, -1.0
	for i, p := range probs {
		if p > p1 {
			best, p2, p1 = i, p1, p
		} else if p > p2 {
			p2 = p
		}
	}
	if p2 < 0 {
		p2 = 0 // single-class vector: the margin degenerates to p1
	}
	evidence = openset.FloorUnset
	if best < len(ev) {
		evidence = ev[best]
	}
	return p1 - p2, evidence
}

// decide is the single thresholding rule shared by serving-time
// prediction and training-time tuning: the most probable class wins, and
// confidence below the threshold demotes the label to UnknownLabel.
func decide(proba []float64, classes []string, threshold float64) Prediction {
	best, bestP := 0, -1.0
	for cl, p := range proba {
		if p > bestP {
			best, bestP = cl, p
		}
	}
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
	known := map[string]bool{}
	for _, cl := range c.profiles.classes {
		known[cl] = true
	}
	out := make([]string, len(samples))
	for i := range samples {
		if known[samples[i].Class] {
			out[i] = samples[i].Class
		} else {
			out[i] = UnknownLabel
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
	groups := c.profiles.featureGroups()
	out := make(map[string]float64, len(groups))
	total := 0.0
	for kind, span := range groups {
		sum := 0.0
		for i := span[0]; i < span[1]; i++ {
			sum += importances[i]
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

// ForestParams returns the Random Forest parameters of the fitted model
// (after any grid search); the zero value when the model is not a
// forest.
func (c *Classifier) ForestParams() rf.Params {
	if fm, ok := c.mdl.(interface{ Forest() *rf.Forest }); ok {
		return fm.Forest().Params
	}
	return rf.Params{}
}
