// Package model is the classification-model layer of the Fuzzy Hash
// Classifier. The paper's pipeline is "fuzzy-hash features → ML
// classifier", and its comparison set spans Random Forest, SVM and KNN;
// this package gives the three one narrow interface — per-sample
// probability prediction over the similarity feature matrix plus a JSON
// round-trip — and a closed switch over their kind tags, so the core
// classifier, the persisted artifact and the serving engine are all
// model-agnostic. The Random Forest is the default; every kind
// delegates to its own package, so no arithmetic is re-implemented
// here.
//
// Concurrency contract: a fitted Model is immutable — PredictProba and
// MarshalJSON may run concurrently from any goroutine; Train must
// complete before the model is shared.
package model

import (
	"encoding/json"
	"fmt"

	"repro/internal/knn"
	"repro/internal/rf"
	"repro/internal/svm"
)

// Model kinds, as persisted in artifacts.
const (
	// KindRF is the paper's Random Forest, the default.
	KindRF = "rf"
	// KindKNN is the K-nearest-neighbour comparison model.
	KindKNN = "knn"
	// KindSVM is the linear one-vs-rest SVM comparison model.
	KindSVM = "svm"
)

// Model is the common surface of every classification model trained on
// the fuzzy-hash similarity features. Implementations are safe for
// concurrent prediction once trained.
type Model interface {
	// NumClasses returns the number of classes the model was trained on.
	NumClasses() int
	// NumFeatures returns the input dimensionality.
	NumFeatures() int
	// PredictProba returns the class-probability vector of one sample,
	// in class-index order.
	PredictProba(x []float64) []float64
	// MarshalJSON serialises the fitted model parameters; Unmarshal with
	// the same kind restores a behaviourally identical model.
	json.Marshaler
}

// Importancer is the optional interface of models exposing per-column
// feature importances (the Random Forest's Table 5 surface).
type Importancer interface {
	Importances() []float64
}

// Options carries the per-kind training parameters; each kind reads
// only its own field (parallelism knobs live inside the per-kind
// params, e.g. rf.Params.Workers).
type Options struct {
	// Forest configures the "rf" kind.
	Forest rf.Params
	// KNN configures the "knn" kind.
	KNN knn.Params
	// SVM configures the "svm" kind.
	SVM svm.Params
}

// Kinds returns the model kind tags, sorted.
func Kinds() []string {
	return []string{KindKNN, KindRF, KindSVM}
}

// Validate reports whether the kind is known ("" selects the default
// and is always valid). Callers that do expensive work before training
// — featurisation, tuning splits — should validate first so a typo
// fails in microseconds, not minutes.
func Validate(kind string) error {
	switch kind {
	case "", KindRF, KindKNN, KindSVM:
		return nil
	}
	return fmt.Errorf("model: unknown kind %q (known: %v)", kind, Kinds())
}

// Train fits a model of the given kind ("" selects the default "rf")
// on the feature matrix X with integer labels y in [0, numClasses).
func Train(kind string, X [][]float64, y []int, numClasses int, opt Options) (Model, error) {
	var m Model
	var err error
	switch kind {
	case "", KindRF:
		var f *rf.Forest
		f, err = rf.Train(X, y, numClasses, opt.Forest)
		m = forest{f}
	case KindKNN:
		m, err = knn.Train(X, y, numClasses, opt.KNN)
	case KindSVM:
		m, err = svm.Train(X, y, numClasses, opt.SVM)
	default:
		return nil, Validate(kind)
	}
	if err != nil {
		return nil, fmt.Errorf("model: training %s: %w", kind, err)
	}
	return m, nil
}

// Unmarshal restores a model of the given kind from its persisted
// payload. Each kind validates its payload as it decodes, so a
// malformed artifact fails here rather than at prediction time.
func Unmarshal(kind string, data []byte) (Model, error) {
	var m Model
	var dst json.Unmarshaler
	switch kind {
	case "", KindRF:
		f := &rf.Forest{}
		m, dst = forest{f}, f
	case KindKNN:
		c := &knn.Classifier{}
		m, dst = c, c
	case KindSVM:
		c := &svm.Classifier{}
		m, dst = c, c
	default:
		return nil, Validate(kind)
	}
	// Calling the decoder directly, not through json.Unmarshal, saves
	// two scans of the payload: json.Unmarshal would validate and then
	// skip over it before handing the same bytes to UnmarshalJSON.
	if err := dst.UnmarshalJSON(data); err != nil {
		return nil, fmt.Errorf("model: loading %s: %w", kind, err)
	}
	return m, nil
}

// forest adapts *rf.Forest to Model: the forest's NumClasses,
// NumFeatures and Importances are exported fields (and the artifact's
// JSON keys), so they cannot also be its methods.
type forest struct {
	*rf.Forest
}

func (f forest) NumClasses() int        { return f.Forest.NumClasses }
func (f forest) NumFeatures() int       { return f.Forest.NumFeatures }
func (f forest) Importances() []float64 { return f.Forest.Importances }

func (f forest) MarshalJSON() ([]byte, error) { return json.Marshal(f.Forest) }
