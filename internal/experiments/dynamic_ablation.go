package experiments

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/dynamic"
	"repro/internal/ml"
	"repro/internal/rf"
	"repro/internal/rng"
)

// AblationDynamic (A5) implements the paper's §6 future work: combining
// static fuzzy-hash classification with dynamic execution-behaviour
// fingerprints. Each sample receives one simulated execution whose
// resource trace depends on its application class, a per-run input scale
// and system noise; the Random Forest is trained on the static features,
// the dynamic fingerprints, and their concatenation.
type AblationDynamic struct {
	Rows []ModelScores
}

// dynamicNoise and the input-scale spread reproduce the weakness the
// paper attributes to resource-usage classification: unseen inputs and
// system noise blur fingerprints of the same application.
const dynamicNoise = 0.25

// RunAblationDynamic trains and scores the three feature configurations.
func RunAblationDynamic(p *Pipeline) (*AblationDynamic, error) {
	clf := p.Classifier
	classes := clf.Classes()
	threshold := clf.Threshold()

	xTrainStatic := clf.FeaturizeBatch(p.Train)
	xTestStatic := clf.FeaturizeBatch(p.Test)
	yTrain := clf.Labels(p.Train)
	yTrue := clf.GroundTruth(p.Test)

	profiles := map[string]*dynamic.Profile{}
	fingerprint := func(s *dataset.Sample) []float64 {
		prof, ok := profiles[s.Class]
		if !ok {
			prof = dynamic.NewProfile(s.Class, p.Seed)
			profiles[s.Class] = prof
		}
		// Every execution has its own input size and noise realisation.
		src := rng.New(p.Seed).Child("dynamic-run:" + s.Path())
		scale := 0.4 + src.Float64()*2.4
		return dynamic.Fingerprint(prof.Simulate(dynamic.RunOptions{
			Steps:      96,
			InputScale: scale,
			Noise:      dynamicNoise,
			Seed:       src.Uint64(),
		}))
	}
	xTrainDyn := make([][]float64, len(p.Train))
	for i := range p.Train {
		xTrainDyn[i] = fingerprint(&p.Train[i])
	}
	xTestDyn := make([][]float64, len(p.Test))
	for i := range p.Test {
		xTestDyn[i] = fingerprint(&p.Test[i])
	}

	concat := func(a, b [][]float64) [][]float64 {
		out := make([][]float64, len(a))
		for i := range a {
			row := make([]float64, 0, len(a[i])+len(b[i]))
			row = append(row, a[i]...)
			row = append(row, b[i]...)
			out[i] = row
		}
		return out
	}

	configs := []struct {
		name          string
		xTrain, xTest [][]float64
	}{
		{"static fuzzy hashes (paper)", xTrainStatic, xTestStatic},
		{"dynamic fingerprints only", xTrainDyn, xTestDyn},
		{"static + dynamic combined", concat(xTrainStatic, xTrainDyn), concat(xTestStatic, xTestDyn)},
	}
	out := &AblationDynamic{}
	for _, c := range configs {
		forest, err := rf.Train(c.xTrain, yTrain, len(classes), rf.Params{
			NumTrees: p.Scale.trees(),
			Balanced: true,
			Seed:     p.Seed + 7,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: dynamic ablation %s: %w", c.name, err)
		}
		yPred := predictLabels(forest.PredictProba, c.xTest, classes, threshold)
		report, err := ml.ClassificationReport(yTrue, yPred)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ModelScores{Name: c.name, Scores: report.Scores()})
	}
	return out, nil
}

// predictLabels predicts each row of X and converts the probability
// vector into a label under a confidence threshold (shared by the model
// ablations).
func predictLabels(predict func(x []float64) []float64, X [][]float64, classes []string, threshold float64) []string {
	out := make([]string, len(X))
	for i, x := range X {
		best, bestP := 0, -1.0
		for c, pr := range predict(x) {
			if pr > bestP {
				best, bestP = c, pr
			}
		}
		if bestP < threshold {
			out[i] = ml.UnknownLabel
		} else {
			out[i] = classes[best]
		}
	}
	return out
}

// Format renders the ablation.
func (a *AblationDynamic) Format() string {
	return formatModelScores("Ablation A5: static vs dynamic vs combined classification (paper §6 future work)", a.Rows)
}
