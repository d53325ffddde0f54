// Package ml provides the model-evaluation machinery around the Fuzzy
// Hash Classifier: the paper's two-phase train/test split, stratified
// splitting, label encoding, multi-class metrics (micro/macro/weighted
// precision, recall, f1) and an sklearn-style classification report.
//
// Concurrency contract: every function is pure — inputs in, fresh values
// out, no package state — so all of them are safe to call concurrently;
// splits are deterministic for a given seed.
package ml

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// SplitMode selects how classes are assigned to the unknown split.
type SplitMode int

const (
	// PaperSplit uses each sample's UnknownClass marker, reproducing the
	// exact Table 3 composition.
	PaperSplit SplitMode = iota
	// RandomSplit draws the unknown classes randomly (the paper's 80/20
	// first-phase split), seeded for reproducibility.
	RandomSplit
)

// SplitOptions configures SplitTwoPhase.
type SplitOptions struct {
	// Mode selects the class-split source; default PaperSplit.
	Mode SplitMode
	// UnknownClassFraction is the fraction of classes moved wholly into
	// the test set under RandomSplit; the paper uses 0.2.
	UnknownClassFraction float64
	// TrainFraction is the per-class fraction of known-class samples that
	// train; the paper uses 0.6.
	TrainFraction float64
	// Seed drives the random decisions.
	Seed uint64
}

// Split is the result of the two-phase train/test split.
type Split struct {
	// TrainIdx are indices into the sample slice forming the training set.
	TrainIdx []int
	// TestIdx are the test indices (known-class holdout plus every sample
	// of the unknown classes).
	TestIdx []int
	// KnownClasses are the class labels available to the classifier,
	// sorted.
	KnownClasses []string
	// UnknownClasses are the classes whose samples only appear in the
	// test set, sorted.
	UnknownClasses []string
}

// NumUnknownTest returns how many test samples belong to unknown classes.
func (s *Split) NumUnknownTest(samples []dataset.Sample) int {
	unknown := map[string]bool{}
	for _, c := range s.UnknownClasses {
		unknown[c] = true
	}
	n := 0
	for _, i := range s.TestIdx {
		if unknown[samples[i].Class] {
			n++
		}
	}
	return n
}

// SplitTwoPhase implements the paper's evaluation protocol: first split
// the classes into known and unknown (80/20), then split the known-class
// samples with a stratified train/test split (60/40). Unknown-class
// samples all land in the test set.
func SplitTwoPhase(samples []dataset.Sample, opt SplitOptions) (Split, error) {
	if len(samples) == 0 {
		return Split{}, fmt.Errorf("ml: no samples to split")
	}
	if opt.TrainFraction <= 0 || opt.TrainFraction >= 1 {
		opt.TrainFraction = 0.6
	}
	if opt.UnknownClassFraction <= 0 || opt.UnknownClassFraction >= 1 {
		opt.UnknownClassFraction = 0.2
	}

	byClass := map[string][]int{}
	for i := range samples {
		byClass[samples[i].Class] = append(byClass[samples[i].Class], i)
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)

	unknown := map[string]bool{}
	switch opt.Mode {
	case PaperSplit:
		for i := range samples {
			if samples[i].UnknownClass {
				unknown[samples[i].Class] = true
			}
		}
		if len(unknown) == 0 {
			return Split{}, fmt.Errorf("ml: paper split requested but no samples carry the unknown marker")
		}
	case RandomSplit:
		src := rng.New(opt.Seed).Child("class-split")
		perm := src.Perm(len(classes))
		nUnknown := int(float64(len(classes))*opt.UnknownClassFraction + 0.5)
		if nUnknown == 0 && len(classes) > 1 {
			nUnknown = 1
		}
		for _, pi := range perm[:nUnknown] {
			unknown[classes[pi]] = true
		}
	default:
		return Split{}, fmt.Errorf("ml: unknown split mode %d", opt.Mode)
	}

	var split Split
	for _, c := range classes {
		idx := byClass[c]
		if unknown[c] {
			split.UnknownClasses = append(split.UnknownClasses, c)
			split.TestIdx = append(split.TestIdx, idx...)
			continue
		}
		split.KnownClasses = append(split.KnownClasses, c)
		train, test := stratifyClass(idx, opt.TrainFraction, rng.New(opt.Seed).Child("sample-split:"+c))
		split.TrainIdx = append(split.TrainIdx, train...)
		split.TestIdx = append(split.TestIdx, test...)
	}
	sort.Ints(split.TrainIdx)
	sort.Ints(split.TestIdx)
	return split, nil
}

// stratifyClass splits one class's sample indices into train and test.
// Every class keeps at least one training sample; classes with a single
// sample train on it and contribute nothing to the test set.
func stratifyClass(idx []int, trainFraction float64, src *rng.Source) (train, test []int) {
	shuffled := append([]int(nil), idx...)
	src.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	nTrain := int(float64(len(shuffled))*trainFraction + 0.5)
	if nTrain == 0 {
		nTrain = 1
	}
	if nTrain > len(shuffled) {
		nTrain = len(shuffled)
	}
	return shuffled[:nTrain], shuffled[nTrain:]
}

// UnknownLabel is the paper's label for samples not attributable to any
// known class.
const UnknownLabel = "-1"
