package core

import (
	"fmt"
	"sync"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/rf"
)

// fallbackThreshold is used when the training set is too small to carve
// out an inner validation split with pseudo-unknown classes.
const fallbackThreshold = 0.30

// tuneResult is the winning grid point.
type tuneResult struct {
	params    rf.Params
	threshold float64
	combined  float64
}

// tune reproduces the paper's model selection: inside the training set,
// hold out a fraction of classes as pseudo-unknown plus a stratified
// sample split, grid-search the Random Forest parameters, and sweep the
// confidence threshold, selecting the point that maximises the combined
// micro+macro+weighted f1. The sweep of the winning parameter set is the
// paper's Figure 3.
func tune(trainSamples []dataset.Sample, cfg Config, grid *Grid) (tuneResult, []ThresholdScore, error) {
	base := cfg.Forest
	split, err := ml.SplitTwoPhase(trainSamples, ml.SplitOptions{
		Mode:                 ml.RandomSplit,
		UnknownClassFraction: 0.2,
		TrainFraction:        0.6,
		Seed:                 cfg.Seed ^ 0x1776_5eed,
	})
	if err != nil {
		return tuneResult{}, nil, err
	}
	if len(split.KnownClasses) < 2 || len(split.TestIdx) == 0 {
		// Too few classes to simulate unknowns; keep the base parameters
		// and a conservative fixed threshold.
		return tuneResult{params: base, threshold: fallbackThreshold}, nil, nil
	}

	dist, err := cfg.Distance.Func()
	if err != nil {
		return tuneResult{}, nil, err
	}
	innerTrain := gather(trainSamples, split.TrainIdx)
	innerVal := gather(trainSamples, split.TestIdx)
	profiles := buildProfiles(innerTrain, cfg.Features, split.KnownClasses)
	xTrain := profiles.featurizeBatch(innerTrain, dist, cfg.Workers)
	xVal := profiles.featurizeBatch(innerVal, dist, cfg.Workers)

	classIndex := make(map[string]int, len(split.KnownClasses))
	for i, c := range split.KnownClasses {
		classIndex[c] = i
	}
	yTrain := make([]int, len(innerTrain))
	for i := range innerTrain {
		yTrain[i] = classIndex[innerTrain[i].Class]
	}
	yTrue := make([]string, len(innerVal))
	for i := range innerVal {
		if _, ok := classIndex[innerVal[i].Class]; ok {
			yTrue[i] = innerVal[i].Class
		} else {
			yTrue[i] = UnknownLabel
		}
	}

	thresholds := grid.Thresholds
	if len(thresholds) == 0 {
		thresholds = defaultThresholds()
	}

	// Every grid point is an independent model train + threshold sweep,
	// so points are evaluated on a bounded worker pool. Winner selection
	// stays deterministic: results are collected per point and reduced
	// sequentially in grid order below, reproducing the sequential
	// strict-improvement tie-break (earlier grid point, then lower
	// threshold, wins ties) regardless of completion order. Non-rf model
	// kinds reach here with a thresholds-only grid (Train rejects forest
	// dimensions for them), which expands to the single base point.
	points := grid.expand(base)
	type pointResult struct {
		params rf.Params
		curve  []ThresholdScore
		err    error
	}
	results := make([]pointResult, len(points))
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(points) {
		workers = len(points)
	}
	// The outer pool already saturates the CPUs, so each point trains
	// its forest with the leftover share rather than cfg.Workers —
	// worker counts never change results, only contention. Train()
	// re-sets Workers on the winning params for the final fit.
	innerWorkers := cfg.Workers / workers
	if innerWorkers < 1 {
		innerWorkers = 1
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				params := points[i]
				params.Balanced = true
				params.Workers = innerWorkers
				results[i].params = params
				m, err := model.Train(cfg.Model, xTrain, yTrain, len(split.KnownClasses), model.Options{
					Forest: params,
					KNN:    cfg.KNN,
					SVM:    cfg.SVM,
				})
				if err != nil {
					results[i].err = fmt.Errorf("grid point %+v: %w", params, err)
					continue
				}
				probas := m.PredictProbaBatch(xVal, innerWorkers)
				curve := make([]ThresholdScore, 0, len(thresholds))
				for _, th := range thresholds {
					yPred := applyThreshold(probas, split.KnownClasses, th)
					report, err := ml.ClassificationReport(yTrue, yPred)
					if err != nil {
						results[i].err = err
						break
					}
					curve = append(curve, ThresholdScore{Threshold: th, Scores: report.Scores()})
				}
				results[i].curve = curve
			}
		}()
	}
	for i := range points {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	best := tuneResult{params: base, threshold: fallbackThreshold, combined: -1}
	var bestCurve []ThresholdScore
	for i := range results {
		if results[i].err != nil {
			return tuneResult{}, nil, results[i].err
		}
		improved := false
		for _, ts := range results[i].curve {
			if c := ts.Scores.Combined(); c > best.combined {
				best = tuneResult{params: results[i].params, threshold: ts.Threshold, combined: c}
				improved = true
			}
		}
		if improved {
			bestCurve = results[i].curve
		}
	}
	return best, bestCurve, nil
}

// applyThreshold converts probability vectors into labels under a
// confidence threshold, through the same decide rule serving uses.
func applyThreshold(probas [][]float64, classes []string, threshold float64) []string {
	out := make([]string, len(probas))
	for i, proba := range probas {
		out[i] = decide(proba, classes, threshold).Label
	}
	return out
}

// gather selects samples by index.
func gather(samples []dataset.Sample, idx []int) []dataset.Sample {
	out := make([]dataset.Sample, len(idx))
	for i, j := range idx {
		out[i] = samples[j]
	}
	return out
}
