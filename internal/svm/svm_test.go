package svm

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func blobs(seed uint64, perClass int) ([][]float64, []int) {
	src := rng.New(seed)
	var X [][]float64
	var y []int
	for c := 0; c < 3; c++ {
		for i := 0; i < perClass; i++ {
			X = append(X, []float64{
				float64(30*c) + src.NormFloat64()*3,
				float64(30*c) + src.NormFloat64()*3,
			})
			y = append(y, c)
		}
	}
	return X, y
}

// argmax returns the index of the largest probability.
func argmax(proba []float64) int {
	best, bestP := 0, -1.0
	for c, p := range proba {
		if p > bestP {
			best, bestP = c, p
		}
	}
	return best
}

func TestPredictSeparable(t *testing.T) {
	X, y := blobs(1, 60)
	c, err := Train(X, y, 3, Params{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := blobs(7, 30)
	correct := 0
	for i := range testX {
		if argmax(c.PredictProba(testX[i])) == testY[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(testX)); acc < 0.85 {
		t.Fatalf("accuracy = %.3f, want >= 0.85", acc)
	}
}

func TestPredictProbaDistribution(t *testing.T) {
	X, y := blobs(2, 30)
	c, err := Train(X, y, 3, Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(X); i += 7 {
		p := c.PredictProba(X[i])
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("probability out of range: %v", p)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", sum)
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	X, y := blobs(3, 30)
	a, err := Train(X, y, 3, Params{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(X, y, 3, Params{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		pa, pb := a.decision(X[i]), b.decision(X[i])
		for j := range pa {
			if math.Abs(pa[j]-pb[j]) > 1e-12 {
				t.Fatal("same seed produced different models")
			}
		}
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, 2, Params{}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Train([][]float64{{1}}, []int{0, 1}, 2, Params{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Train([][]float64{{1}}, []int{0}, 1, Params{}); err == nil {
		t.Error("single class accepted")
	}
}
