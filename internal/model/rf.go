package model

import (
	"encoding/json"
	"fmt"

	"repro/internal/rf"
)

func init() {
	Register(KindRF, trainForest, unmarshalForest)
}

// forestModel adapts *rf.Forest to the Model interface. It delegates
// every prediction to the forest unchanged, so a registry-trained "rf"
// model is bit-identical to calling package rf directly.
type forestModel struct {
	f *rf.Forest
}

func trainForest(X [][]float64, y []int, numClasses int, opt Options) (Model, error) {
	f, err := rf.Train(X, y, numClasses, opt.Forest)
	if err != nil {
		return nil, err
	}
	return &forestModel{f: f}, nil
}

func unmarshalForest(data []byte) (Model, error) {
	var f rf.Forest
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	if len(f.Trees) == 0 {
		return nil, fmt.Errorf("rf: model has no trees")
	}
	return &forestModel{f: &f}, nil
}

func (m *forestModel) Kind() string     { return KindRF }
func (m *forestModel) NumClasses() int  { return m.f.NumClasses }
func (m *forestModel) NumFeatures() int { return m.f.NumFeatures }

func (m *forestModel) PredictProba(x []float64) []float64 {
	return m.f.PredictProba(x)
}

func (m *forestModel) PredictProbaBatch(X [][]float64, workers int) [][]float64 {
	return m.f.PredictProbaBatch(X, workers)
}

// Importances exposes the forest's mean-decrease-in-impurity column
// importances (the Importancer optional interface).
func (m *forestModel) Importances() []float64 { return m.f.Importances }

func (m *forestModel) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.f)
}
