package rf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomProblem builds a small random classification problem from quick's
// raw material.
func randomProblem(seed uint64, nSel, dSel, cSel uint8) ([][]float64, []int, int) {
	n := 10 + int(nSel)%40
	d := 1 + int(dSel)%6
	numClasses := 2 + int(cSel)%3
	src := rng.New(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, d)
		y[i] = src.Intn(numClasses)
		for j := range row {
			// Weak class signal plus noise keeps trees non-trivial.
			row[j] = float64(y[i]) + src.NormFloat64()*2
		}
		X[i] = row
	}
	return X, y, numClasses
}

// Property: PredictProba is always a probability distribution, whatever
// the data looks like.
func TestProbaDistributionProperty(t *testing.T) {
	f := func(seed uint64, nSel, dSel, cSel uint8) bool {
		X, y, numClasses := randomProblem(seed, nSel, dSel, cSel)
		forest, err := Train(X, y, numClasses, Params{NumTrees: 7, Seed: seed})
		if err != nil {
			// Only acceptable failure: a single class present.
			return singleClass(y)
		}
		for i := 0; i < len(X); i += 3 {
			proba := forest.PredictProba(X[i])
			sum := 0.0
			for _, p := range proba {
				if p < -1e-9 || p > 1+1e-9 || math.IsNaN(p) {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: feature importances are non-negative and sum to 1 (or all
// zero when no split was ever made).
func TestImportanceNormalisationProperty(t *testing.T) {
	f := func(seed uint64, nSel, dSel, cSel uint8) bool {
		X, y, numClasses := randomProblem(seed, nSel, dSel, cSel)
		forest, err := Train(X, y, numClasses, Params{NumTrees: 5, Seed: seed})
		if err != nil {
			return singleClass(y)
		}
		sum := 0.0
		for _, v := range forest.Importances {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return sum == 0 || math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func singleClass(y []int) bool {
	for _, v := range y[1:] {
		if v != y[0] {
			return false
		}
	}
	return true
}
