// Package core implements the paper's primary contribution: the Fuzzy
// Hash Classifier. Application executables are reduced to SSDeep fuzzy
// digests of several views (raw file, strings(1) output, nm(1) global
// symbols, optionally DT_NEEDED libraries); each sample is featurised as
// its maximum fuzzy-hash similarity to every known class's training
// digests; a Random Forest with balanced class weights predicts the
// application class, and predictions whose confidence falls below a tuned
// threshold are labelled "-1" (unknown) — the paper's signal for software
// deviating from allocation purpose.
//
// Concurrency contract: a trained Classifier is read-mostly and safe for
// concurrent Classify/ClassifyBatch/PredictProbaBatch/Featurize calls;
// the runtime tuning knob, SetThreshold, is atomic and may be moved
// while serving (each prediction reads a consistent snapshot). Train itself is single-caller; it parallelises
// internally via internal/par.
package core

import (
	"fmt"
	"runtime"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/model"
	"repro/internal/openset"
	"repro/internal/rf"
	"repro/internal/svm"
	"repro/ssdeep"
)

// UnknownLabel is the class label returned for samples that resemble no
// known application class (the paper's "-1").
const UnknownLabel = "-1"

// DistanceName selects the signature distance used for similarity scoring.
type DistanceName string

// Supported scoring distances. The paper specifies Damerau–Levenshtein.
// The names resolve to the bit-parallel implementations; the
// dynamic-programming oracles they are tested against
// (ssdeep.DistanceDLOracle, ssdeep.DistanceLevenshteinOracle) are not
// selectable by name.
const (
	DistanceDL          DistanceName = "damerau-levenshtein"
	DistanceLevenshtein DistanceName = "levenshtein"
	DistanceSpamsum     DistanceName = "spamsum"
)

// retiredDistances maps the "-dp" oracle names that artifacts written
// before the oracles left production may carry onto the fast distances
// that are bit-identical to them, so those artifacts keep loading.
var retiredDistances = map[DistanceName]DistanceName{
	"damerau-levenshtein-dp": DistanceDL,
	"levenshtein-dp":         DistanceLevenshtein,
}

// Func returns the ssdeep distance function for the name.
func (d DistanceName) Func() (ssdeep.DistanceFunc, error) {
	switch d {
	case DistanceDL, "":
		return ssdeep.DistanceDL, nil
	case DistanceLevenshtein:
		return ssdeep.DistanceLevenshtein, nil
	case DistanceSpamsum:
		return ssdeep.DistanceSpamsum, nil
	default:
		return nil, fmt.Errorf("core: unknown distance %q", string(d))
	}
}

// Config configures training of a Fuzzy Hash Classifier.
type Config struct {
	// Features selects the fuzzy-hash features; empty selects the paper's
	// three (file, strings, symbols). Append dataset.FeatureNeeded for
	// the ldd future-work ablation.
	Features []dataset.FeatureKind
	// Model selects the classification model trained on the similarity
	// features: "rf" (the paper's Random Forest, the default), "knn" or
	// "svm" — any kind registered with internal/model.
	Model string
	// Forest sets the Random Forest parameters of the "rf" model. When
	// Grid is non-nil the grid search overrides the searched fields;
	// Balanced and Seed are always honoured.
	Forest rf.Params
	// KNN sets the parameters of the "knn" model.
	KNN knn.Params
	// SVM sets the parameters of the "svm" model.
	SVM svm.Params
	// Threshold fixes the confidence threshold. Zero means: tune it on an
	// inner split of the training set, as the paper does.
	Threshold float64
	// Grid, when non-nil, runs the paper's hyper-parameter grid search on
	// an inner split of the training set.
	Grid *Grid
	// Distance selects the digest-comparison distance; default is the
	// paper's Damerau–Levenshtein.
	Distance DistanceName
	// Seed drives every random decision of training.
	Seed uint64
	// Workers bounds parallelism; <= 0 selects GOMAXPROCS.
	Workers int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if len(c.Features) == 0 {
		c.Features = []dataset.FeatureKind{
			dataset.FeatureFile, dataset.FeatureStrings, dataset.FeatureSymbols,
		}
	}
	if c.Model == "" {
		c.Model = model.KindRF
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Forest.NumTrees == 0 {
		c.Forest.NumTrees = 200
	}
	c.Forest.Balanced = true // the paper's class-imbalance answer
	if c.Forest.Seed == 0 {
		c.Forest.Seed = c.Seed + 1
	}
	if c.SVM.Seed == 0 {
		c.SVM.Seed = c.Seed + 2
	}
	return c
}

// Grid is the hyper-parameter search space. Empty slices keep the
// corresponding Config.Forest value fixed.
type Grid struct {
	// NumTrees, MaxDepth, MinSamplesSplit, MinSamplesLeaf, MaxFeatures
	// and Criterion mirror the scikit-learn parameters the paper tunes.
	NumTrees        []int
	MaxDepth        []int
	MinSamplesSplit []int
	MinSamplesLeaf  []int
	MaxFeatures     []string
	Criterion       []rf.Criterion
	// Thresholds is the confidence-threshold sweep (Figure 3).
	Thresholds []float64
}

// DefaultGrid returns the search space used for the paper-scale
// experiments: a compact grid over the parameters the paper names, plus a
// fine threshold sweep.
func DefaultGrid() *Grid {
	return &Grid{
		NumTrees:        []int{200},
		MaxDepth:        []int{0, 24},
		MinSamplesSplit: []int{2, 4},
		MinSamplesLeaf:  []int{1},
		MaxFeatures:     []string{"sqrt"},
		Criterion:       []rf.Criterion{rf.Gini},
		Thresholds:      defaultThresholds(),
	}
}

func defaultThresholds() []float64 {
	ts := make([]float64, 0, 20)
	for v := 0.0; v < 0.96; v += 0.05 {
		ts = append(ts, v)
	}
	return ts
}

// hasForestDims reports whether the grid searches Random Forest
// hyper-parameters, as opposed to only sweeping the confidence
// threshold (which applies to every model kind).
func (g *Grid) hasForestDims() bool {
	return len(g.NumTrees) > 0 || len(g.MaxDepth) > 0 || len(g.MinSamplesSplit) > 0 ||
		len(g.MinSamplesLeaf) > 0 || len(g.MaxFeatures) > 0 || len(g.Criterion) > 0
}

// expand enumerates the grid as concrete forest parameter sets, anchored
// on base for the untuned fields.
func (g *Grid) expand(base rf.Params) []rf.Params {
	numTrees := orDefaultInts(g.NumTrees, base.NumTrees)
	maxDepth := orDefaultInts(g.MaxDepth, base.MaxDepth)
	minSplit := orDefaultInts(g.MinSamplesSplit, base.MinSamplesSplit)
	minLeaf := orDefaultInts(g.MinSamplesLeaf, base.MinSamplesLeaf)
	maxFeat := g.MaxFeatures
	if len(maxFeat) == 0 {
		maxFeat = []string{base.MaxFeatures}
	}
	crits := g.Criterion
	if len(crits) == 0 {
		crits = []rf.Criterion{base.Criterion}
	}
	var out []rf.Params
	for _, nt := range numTrees {
		for _, md := range maxDepth {
			for _, ms := range minSplit {
				for _, ml := range minLeaf {
					for _, mf := range maxFeat {
						for _, cr := range crits {
							p := base
							p.NumTrees = nt
							p.MaxDepth = md
							p.MinSamplesSplit = ms
							p.MinSamplesLeaf = ml
							p.MaxFeatures = mf
							p.Criterion = cr
							out = append(out, p)
						}
					}
				}
			}
		}
	}
	return out
}

func orDefaultInts(vals []int, def int) []int {
	if len(vals) == 0 {
		return []int{def}
	}
	return vals
}

// Prediction is the classifier's answer for one sample.
type Prediction struct {
	// Label is the predicted class, or UnknownLabel when confidence fell
	// below the threshold (or a calibrated verdict demoted it).
	Label string
	// Class is the most probable known class even when Label is unknown;
	// useful for triage ("unknown, but closest to X").
	Class string
	// Confidence is the Random Forest probability of Class.
	Confidence float64
	// Margin is the probability gap between the best and second-best
	// class — the closed-set ambiguity signal the open-set calibration
	// thresholds.
	Margin float64
	// Evidence is Class's fuzzy-hash distance evidence: the highest
	// ssdeep similarity (0–100) between the sample and Class's training
	// digests across feature kinds. openset.FloorUnset (-1) when the
	// prediction was made from a bare probability vector.
	Evidence float64
	// Verdict is the calibrated open-set decision (class / unknown /
	// ambiguous); empty when no calibration is installed, so the raw
	// closed-set behaviour is unchanged.
	Verdict openset.Verdict
}
