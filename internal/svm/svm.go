// Package svm implements a linear one-vs-rest Support Vector Machine
// trained with stochastic gradient descent on the L2-regularised hinge
// loss (Pegasos-style). The paper names SVMs as a future-work comparison
// model; the model-comparison ablation trains it on the same fuzzy-hash
// similarity features as the Random Forest.
//
// Concurrency contract: a fitted Classifier is immutable; PredictProba
// is safe from any goroutine. Train is deterministic for a given seed
// and must complete before the classifier is shared.
package svm

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/rng"
)

// Params configures training.
type Params struct {
	// Epochs is the number of SGD passes; default 30.
	Epochs int
	// Lambda is the L2 regularisation strength; default 1e-4.
	Lambda float64
	// Seed drives shuffling.
	Seed uint64
}

// Classifier is a fitted linear one-vs-rest SVM.
type Classifier struct {
	w          [][]float64 // per class weight vectors
	b          []float64   // per class biases
	numClasses int
	scale      float64 // input scaling applied before dot products
}

// Train fits one binary SVM per class.
func Train(X [][]float64, y []int, numClasses int, p Params) (*Classifier, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("svm: empty training set")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("svm: %d rows but %d labels", len(X), len(y))
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("svm: need at least 2 classes")
	}
	if p.Epochs <= 0 {
		p.Epochs = 30
	}
	if p.Lambda <= 0 {
		p.Lambda = 1e-4
	}
	dim := len(X[0])
	// Similarity features live on 0..100; scale to unit-ish magnitude so
	// one learning-rate schedule fits all.
	maxAbs := 1.0
	for i := range X {
		for _, v := range X[i] {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
	}
	c := &Classifier{
		w:          make([][]float64, numClasses),
		b:          make([]float64, numClasses),
		numClasses: numClasses,
		scale:      1 / maxAbs,
	}
	src := rng.New(p.Seed)
	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}
	for cls := 0; cls < numClasses; cls++ {
		w := make([]float64, dim)
		bias := 0.0
		t := 0
		for epoch := 0; epoch < p.Epochs; epoch++ {
			src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, i := range order {
				t++
				lr := 1 / (p.Lambda * float64(t+1))
				target := -1.0
				if y[i] == cls {
					target = 1
				}
				margin := bias
				for d, v := range X[i] {
					margin += w[d] * v * c.scale
				}
				margin *= target
				for d := range w {
					w[d] -= lr * p.Lambda * w[d]
				}
				if margin < 1 {
					for d, v := range X[i] {
						w[d] += lr * target * v * c.scale
					}
					bias += lr * target * 0.01
				}
			}
		}
		c.w[cls] = w
		c.b[cls] = bias
	}
	return c, nil
}

// decision returns the raw margins of x.
func (c *Classifier) decision(x []float64) []float64 {
	m := make([]float64, c.numClasses)
	for cls := range m {
		v := c.b[cls]
		w := c.w[cls]
		for d, xv := range x {
			v += w[d] * xv * c.scale
		}
		m[cls] = v
	}
	return m
}

// PredictProba returns a softmax over the per-class margins. This is a
// calibration convenience, not a probabilistic guarantee; it makes the SVM
// pluggable into the same confidence-threshold machinery as the forest.
func (c *Classifier) PredictProba(x []float64) []float64 {
	m := c.decision(x)
	maxM := math.Inf(-1)
	for _, v := range m {
		if v > maxM {
			maxM = v
		}
	}
	sum := 0.0
	for i, v := range m {
		m[i] = math.Exp(v - maxM)
		sum += m[i]
	}
	for i := range m {
		m[i] /= sum
	}
	return m
}

// NumClasses returns the number of classes the model was trained on.
func (c *Classifier) NumClasses() int { return c.numClasses }

// NumFeatures returns the input dimensionality.
func (c *Classifier) NumFeatures() int {
	if len(c.w) == 0 {
		return 0
	}
	return len(c.w[0])
}

// classifierDTO is the JSON shape of a fitted SVM: the per-class
// hyperplanes plus the input scale — no training data.
type classifierDTO struct {
	Weights    [][]float64 `json:"weights"`
	Biases     []float64   `json:"biases"`
	NumClasses int         `json:"num_classes"`
	Scale      float64     `json:"scale"`
}

// MarshalJSON serialises the fitted model.
func (c *Classifier) MarshalJSON() ([]byte, error) {
	return json.Marshal(classifierDTO{
		Weights: c.w, Biases: c.b, NumClasses: c.numClasses, Scale: c.scale,
	})
}

// UnmarshalJSON restores a model written by MarshalJSON.
func (c *Classifier) UnmarshalJSON(data []byte) error {
	var dto classifierDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return fmt.Errorf("svm: decoding model: %w", err)
	}
	if dto.NumClasses < 2 || len(dto.Weights) != dto.NumClasses || len(dto.Biases) != dto.NumClasses {
		return fmt.Errorf("svm: malformed model: %d classes, %d weight vectors, %d biases",
			dto.NumClasses, len(dto.Weights), len(dto.Biases))
	}
	dim := len(dto.Weights[0])
	for i, w := range dto.Weights {
		if len(w) != dim {
			return fmt.Errorf("svm: weight vector %d has %d features, want %d", i, len(w), dim)
		}
	}
	if dto.Scale <= 0 {
		return fmt.Errorf("svm: malformed model: non-positive scale %v", dto.Scale)
	}
	c.w, c.b, c.numClasses, c.scale = dto.Weights, dto.Biases, dto.NumClasses, dto.Scale
	return nil
}
