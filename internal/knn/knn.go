// Package knn implements a K-nearest-neighbour classifier over the fuzzy
// hash similarity feature matrix. The paper names KNN as a future-work
// comparison model; the model-comparison ablation trains it on exactly the
// features the Random Forest sees.
//
// Concurrency contract: a fitted Classifier is immutable; PredictProba
// is safe from any goroutine. Train must complete before the classifier
// is shared.
package knn

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Params configures the classifier.
type Params struct {
	// K is the neighbourhood size; default 5.
	K int
	// Weighted votes neighbours by inverse distance instead of uniformly.
	Weighted bool
}

// Classifier is a fitted KNN model (it memorises the training set).
type Classifier struct {
	x          [][]float64
	y          []int
	numClasses int
	p          Params
}

// Train validates and stores the training data.
func Train(X [][]float64, y []int, numClasses int, p Params) (*Classifier, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("knn: empty training set")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("knn: %d rows but %d labels", len(X), len(y))
	}
	dim := len(X[0])
	if dim == 0 {
		return nil, fmt.Errorf("knn: samples have no features")
	}
	for i := range X {
		if len(X[i]) != dim {
			return nil, fmt.Errorf("knn: row %d has %d features, want %d", i, len(X[i]), dim)
		}
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("knn: need at least 2 classes")
	}
	for i, label := range y {
		if label < 0 || label >= numClasses {
			return nil, fmt.Errorf("knn: label %d of sample %d out of range", label, i)
		}
	}
	if p.K <= 0 {
		p.K = 5
	}
	if p.K > len(X) {
		p.K = len(X)
	}
	return &Classifier{x: X, y: y, numClasses: numClasses, p: p}, nil
}

// PredictProba returns the class vote distribution for one sample.
//
// fhc:hotpath
func (c *Classifier) PredictProba(x []float64) []float64 {
	type neighbour struct {
		dist float64
		y    int
	}
	nbs := make([]neighbour, len(c.x))
	for i := range c.x {
		nbs[i] = neighbour{dist: euclidean(x, c.x[i]), y: c.y[i]}
	}
	sort.Slice(nbs, func(i, j int) bool { return nbs[i].dist < nbs[j].dist })
	proba := make([]float64, c.numClasses)
	total := 0.0
	for _, nb := range nbs[:c.p.K] {
		w := 1.0
		if c.p.Weighted {
			w = 1 / (nb.dist + 1e-9)
		}
		proba[nb.y] += w
		total += w
	}
	if total > 0 {
		for i := range proba {
			proba[i] /= total
		}
	}
	return proba
}

// NumClasses returns the number of classes the model was trained on.
func (c *Classifier) NumClasses() int { return c.numClasses }

// NumFeatures returns the input dimensionality.
func (c *Classifier) NumFeatures() int {
	if len(c.x) == 0 {
		return 0
	}
	return len(c.x[0])
}

// classifierDTO is the JSON shape of a fitted KNN model: the memorised
// feature matrix, its labels and the neighbourhood parameters.
type classifierDTO struct {
	X          [][]float64 `json:"x"`
	Y          []int       `json:"y"`
	NumClasses int         `json:"num_classes"`
	Params     Params      `json:"params"`
}

// MarshalJSON serialises the fitted model.
func (c *Classifier) MarshalJSON() ([]byte, error) {
	return json.Marshal(classifierDTO{X: c.x, Y: c.y, NumClasses: c.numClasses, Params: c.p})
}

// UnmarshalJSON restores a model written by MarshalJSON, re-validating
// it through Train so a hand-edited payload cannot bypass the training
// invariants.
func (c *Classifier) UnmarshalJSON(data []byte) error {
	var dto classifierDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return fmt.Errorf("knn: decoding model: %w", err)
	}
	restored, err := Train(dto.X, dto.Y, dto.NumClasses, dto.Params)
	if err != nil {
		return fmt.Errorf("knn: malformed model: %w", err)
	}
	*c = *restored
	return nil
}

// fhc:hotpath
func euclidean(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
