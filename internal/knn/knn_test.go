package knn

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
				float64(4*c) + src.NormFloat64(),
				float64(4*c) + src.NormFloat64(),
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
	X, y := blobs(1, 40)
	c, err := Train(X, y, 3, Params{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := blobs(2, 20)
	correct := 0
	for i := range testX {
		if argmax(c.PredictProba(testX[i])) == testY[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(testX)); acc < 0.9 {
		t.Fatalf("accuracy = %.3f, want >= 0.9", acc)
	}
}

func TestPredictProbaDistribution(t *testing.T) {
	X, y := blobs(3, 20)
	c, err := Train(X, y, 3, Params{K: 7, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(X); i += 5 {
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

func TestExactNeighbourDominatesWeighted(t *testing.T) {
	X := [][]float64{{0, 0}, {10, 10}, {20, 20}}
	y := []int{0, 1, 2}
	c, err := Train(X, y, 3, Params{K: 3, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	p := c.PredictProba([]float64{0, 0})
	if p[0] < 0.99 {
		t.Fatalf("exact match probability = %v, want about 1", p[0])
	}
}

func TestKClampedToTrainingSize(t *testing.T) {
	X := [][]float64{{0}, {1}}
	y := []int{0, 1}
	c, err := Train(X, y, 2, Params{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	if got := argmax(c.PredictProba([]float64{0.1})); got != 0 && got != 1 {
		t.Fatalf("predicted class = %d", got)
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
	if _, err := Train([][]float64{{1}}, []int{5}, 2, Params{}); err == nil {
		t.Error("out-of-range label accepted")
	}
}
