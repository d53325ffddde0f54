package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/rf"
	"repro/internal/svm"
	"repro/internal/synth"
)

// ModelScores names a variant and its test-set f1 scores.
type ModelScores struct {
	Name   string
	Scores ml.F1Scores
}

// AblationEditDistance (A1) compares the paper's Damerau–Levenshtein
// scoring against plain Levenshtein and the historic spamsum weighting.
type AblationEditDistance struct {
	Rows []ModelScores
}

// RunAblationEditDistance retrains the classifier once per distance.
func RunAblationEditDistance(p *Pipeline) (*AblationEditDistance, error) {
	out := &AblationEditDistance{}
	for _, d := range []core.DistanceName{core.DistanceDL, core.DistanceLevenshtein, core.DistanceSpamsum} {
		cfg := core.Config{
			Forest:    rf.Params{NumTrees: p.Scale.trees()},
			Threshold: p.Classifier.Threshold(),
			Distance:  d,
			Seed:      p.Seed,
		}
		clf, err := core.Train(p.Train, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: distance %s: %w", d, err)
		}
		report, err := clf.Evaluate(p.Test)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ModelScores{Name: string(d), Scores: report.Scores()})
	}
	return out, nil
}

// Format renders the ablation.
func (a *AblationEditDistance) Format() string {
	return formatModelScores("Ablation A1: scoring edit distance", a.Rows)
}

// AblationNeededLibs (A2) adds the paper's future-work ldd feature
// (DT_NEEDED libraries) as a fourth fuzzy hash.
type AblationNeededLibs struct {
	Rows []ModelScores
	// NeededImportance is the importance share of the added feature.
	NeededImportance float64
}

// RunAblationNeededLibs retrains with three and with four features.
func RunAblationNeededLibs(p *Pipeline) (*AblationNeededLibs, error) {
	out := &AblationNeededLibs{}
	configs := []struct {
		name     string
		features []dataset.FeatureKind
	}{
		{"file+strings+symbols", nil}, // default trio
		{"+needed (ldd)", []dataset.FeatureKind{
			dataset.FeatureFile, dataset.FeatureStrings, dataset.FeatureSymbols, dataset.FeatureNeeded,
		}},
	}
	for _, c := range configs {
		cfg := core.Config{
			Features:  c.features,
			Forest:    rf.Params{NumTrees: p.Scale.trees()},
			Threshold: p.Classifier.Threshold(),
			Seed:      p.Seed,
		}
		clf, err := core.Train(p.Train, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: features %s: %w", c.name, err)
		}
		report, err := clf.Evaluate(p.Test)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ModelScores{Name: c.name, Scores: report.Scores()})
		if len(c.features) == 4 {
			out.NeededImportance = clf.FeatureImportance()[dataset.FeatureNeeded.String()]
		}
	}
	return out, nil
}

// Format renders the ablation.
func (a *AblationNeededLibs) Format() string {
	s := formatModelScores("Ablation A2: ldd (DT_NEEDED) as a fourth feature", a.Rows)
	return s + fmt.Sprintf("ssdeep-needed importance share: %.4f\n", a.NeededImportance)
}

// AblationModels (A3) compares the Random Forest against the paper's
// future-work models (KNN, SVM) on the same feature matrix, and against
// the baselines the paper argues against (cryptographic hashing,
// executable names).
type AblationModels struct {
	Rows []ModelScores
}

// RunAblationModels evaluates every model on the pipeline's split. The
// comparison models train through model.Train — the same call the core
// classifier makes — so the ablation exercises exactly the model layer
// a production deployment would select from.
func RunAblationModels(p *Pipeline) (*AblationModels, error) {
	out := &AblationModels{
		Rows: []ModelScores{{Name: "random-forest (paper)", Scores: p.Report.Scores()}},
	}
	clf := p.Classifier
	xTrain := clf.FeaturizeBatch(p.Train)
	yTrain := clf.Labels(p.Train)
	xTest := clf.FeaturizeBatch(p.Test)
	yTrue := clf.GroundTruth(p.Test)
	classes := clf.Classes()

	evalModel := func(name string, m model.Model, threshold float64) error {
		yPred := predictLabels(m.PredictProba, xTest, classes, threshold)
		report, err := ml.ClassificationReport(yTrue, yPred)
		if err != nil {
			return err
		}
		out.Rows = append(out.Rows, ModelScores{Name: name, Scores: report.Scores()})
		return nil
	}

	comparisons := []struct {
		kind, name string
		opt        model.Options
		// threshold is the confidence cut-off for the unknown label.
		// Margin softmax is flat relative to forest probabilities, so
		// the SVM runs at 0 to stay comparable on pure classification.
		threshold float64
	}{
		{model.KindKNN, "knn (k=5, distance-weighted)",
			model.Options{KNN: knn.Params{K: 5, Weighted: true}}, clf.Threshold()},
		{model.KindSVM, "svm (linear one-vs-rest)",
			model.Options{SVM: svm.Params{Seed: p.Seed}}, 0},
	}
	for _, c := range comparisons {
		m, err := model.Train(c.kind, xTrain, yTrain, len(classes), c.opt)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		if err := evalModel(c.name, m, c.threshold); err != nil {
			return nil, err
		}
	}

	evalBaseline := func(name string, classify func(*dataset.Sample) string) error {
		yPred := make([]string, len(p.Test))
		for i := range p.Test {
			yPred[i] = classify(&p.Test[i])
		}
		report, err := ml.ClassificationReport(yTrue, yPred)
		if err != nil {
			return err
		}
		out.Rows = append(out.Rows, ModelScores{Name: name, Scores: report.Scores()})
		return nil
	}
	crypto := baseline.TrainCrypto(p.Train)
	if err := evalBaseline("crypto-hash exact match", crypto.Classify); err != nil {
		return nil, err
	}
	names := baseline.TrainName(p.Train)
	if err := evalBaseline("executable-name match", names.Classify); err != nil {
		return nil, err
	}
	return out, nil
}

// Format renders the ablation.
func (a *AblationModels) Format() string {
	return formatModelScores("Ablation A3: model comparison on the fuzzy-hash feature matrix", a.Rows)
}

// AblationStripped (A4) measures the paper's stated limitation: binaries
// stripped of their symbol table lose the dominant feature.
type AblationStripped struct {
	// StrippedTotal is the number of stripped known-class test samples.
	StrippedTotal int
	// CorrectStripped counts stripped samples still classified correctly
	// (carried by the file and strings features alone).
	CorrectStripped int
	// UnknownStripped counts stripped samples deflected to the unknown
	// label.
	UnknownStripped int
	// FullAccuracy is the accuracy on the same samples before stripping.
	FullAccuracy float64
}

// RunAblationStripped rebuilds the corpus with a stripped fraction and
// classifies the stripped known-class samples with the pipeline's model.
func RunAblationStripped(p *Pipeline) (*AblationStripped, error) {
	corpus, err := synth.Generate(p.Scale.Manifest(), synth.Options{
		Seed:             p.Seed, // identical corpus, some samples stripped
		StrippedFraction: 0.3,
	})
	if err != nil {
		return nil, err
	}
	samples, err := dataset.FromCorpus(corpus, 0)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, c := range p.Split.KnownClasses {
		known[c] = true
	}
	out := &AblationStripped{}
	var stripped []dataset.Sample
	for i := range samples {
		if samples[i].Stripped && known[samples[i].Class] {
			stripped = append(stripped, samples[i])
		}
	}
	out.StrippedTotal = len(stripped)
	if len(stripped) == 0 {
		return out, nil
	}
	preds := p.Classifier.ClassifyBatch(stripped)
	for i := range stripped {
		switch preds[i].Label {
		case ml.UnknownLabel:
			out.UnknownStripped++
		case stripped[i].Class:
			out.CorrectStripped++
		}
	}

	// The same samples, unstripped, live in the pipeline corpus; measure
	// the classifier's accuracy on their unstripped twins.
	key := func(s *dataset.Sample) string { return s.Path() }
	strippedSet := map[string]bool{}
	for i := range stripped {
		strippedSet[key(&stripped[i])] = true
	}
	var twins []dataset.Sample
	for i := range p.Samples {
		if strippedSet[key(&p.Samples[i])] {
			twins = append(twins, p.Samples[i])
		}
	}
	if len(twins) > 0 {
		preds := p.Classifier.ClassifyBatch(twins)
		correct := 0
		for i := range twins {
			if preds[i].Label == twins[i].Class {
				correct++
			}
		}
		out.FullAccuracy = float64(correct) / float64(len(twins))
	}
	return out, nil
}

// Format renders the ablation.
func (a *AblationStripped) Format() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation A4: stripped binaries (paper limitation)")
	fmt.Fprintf(&b, "stripped known-class samples:   %d\n", a.StrippedTotal)
	if a.StrippedTotal == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "still classified correctly:     %d (%.1f%%)\n",
		a.CorrectStripped, 100*float64(a.CorrectStripped)/float64(a.StrippedTotal))
	fmt.Fprintf(&b, "deflected to unknown (-1):      %d (%.1f%%)\n",
		a.UnknownStripped, 100*float64(a.UnknownStripped)/float64(a.StrippedTotal))
	fmt.Fprintf(&b, "accuracy on unstripped twins:   %.1f%%\n", 100*a.FullAccuracy)
	return b.String()
}

func formatModelScores(title string, rows []ModelScores) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	fmt.Fprintf(&b, "%-34s %8s %8s %8s\n", "variant", "micro", "macro", "weighted")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %8.3f %8.3f %8.3f\n", r.Name, r.Scores.Micro, r.Scores.Macro, r.Scores.Weighted)
	}
	return b.String()
}
