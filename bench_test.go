package fhc

// Benchmarks regenerating every table and figure of the paper, plus the
// ablations of DESIGN.md. Each benchmark prints its table/series once (so
// `go test -bench=.` reproduces the paper's presentation) and then times
// the computation that produces it.
//
// The corpus scale is selected with FHC_BENCH_SCALE (small, medium or
// paper; default medium, or small under -short). The expensive end-to-end
// pipeline — corpus generation, feature extraction, the two-phase split,
// grid-search tuning and final training — is shared across benchmarks via
// the experiments cache and timed by BenchmarkPipelineEndToEnd.

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/ml"
)

// benchScale resolves the corpus scale for benchmarks.
func benchScale(b *testing.B) experiments.Scale {
	if env := os.Getenv("FHC_BENCH_SCALE"); env != "" {
		s, err := experiments.ParseScale(env)
		if err != nil {
			b.Fatalf("FHC_BENCH_SCALE: %v", err)
		}
		return s
	}
	if testing.Short() {
		return experiments.ScaleSmall
	}
	return experiments.ScaleMedium
}

// benchPipeline returns the cached pipeline for the bench scale.
func benchPipeline(b *testing.B) *experiments.Pipeline {
	b.Helper()
	p, err := experiments.Run(benchScale(b), experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// printOnce prints each experiment's output a single time per process.
var printedOutputs sync.Map

func printOnce(name, output string) {
	if _, loaded := printedOutputs.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", output)
	}
}

// BenchmarkPipelineEndToEnd times the full reproduction pipeline: corpus
// synthesis, feature extraction, two-phase split, tuning and training.
// This is the workload generator behind every table.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	scale := benchScale(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Distinct seeds defeat the pipeline cache so every iteration
		// performs the full computation.
		if _, err := experiments.Run(scale, uint64(1000+i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1VelvetInventory regenerates Table 1 (the Velvet class
// inventory of versions and executables).
func BenchmarkTable1VelvetInventory(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable1(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce("table1", t.Format())
		}
	}
}

// BenchmarkTable2HashSimilarity regenerates Table 2 (symbol-digest
// comparison of two versions of one class).
func BenchmarkTable2HashSimilarity(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable2(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce("table2", t.Format())
		}
	}
}

// BenchmarkTable3UnknownSplit regenerates Table 3 (the unknown classes of
// the 80/20 class split and their sample counts).
func BenchmarkTable3UnknownSplit(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable3(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce("table3", t.Format())
		}
	}
}

// BenchmarkTable4ClassificationReport regenerates Table 4, re-running the
// classification of the full test set each iteration — the paper's
// headline evaluation.
func BenchmarkTable4ClassificationReport(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preds := p.Classifier.ClassifyBatch(p.Test)
		yPred := make([]string, len(preds))
		for j := range preds {
			yPred[j] = preds[j].Label
		}
		report, err := ml.ClassificationReport(p.Classifier.GroundTruth(p.Test), yPred)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce("table4", "Table 4: Classification Report\n"+report.Format())
		}
	}
}

// BenchmarkTable5FeatureImportance regenerates Table 5 (normalised
// per-feature Random Forest importance).
func BenchmarkTable5FeatureImportance(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable5(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce("table5", t.Format())
		}
	}
}

// BenchmarkFigure2ClassSizes regenerates Figure 2 (samples per class on a
// log scale).
func BenchmarkFigure2ClassSizes(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure2(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce("figure2", f.Format())
		}
	}
}

// BenchmarkFigure3ConfidenceThreshold regenerates Figure 3 (f1 versus
// confidence threshold from the grid search inside the training set).
func BenchmarkFigure3ConfidenceThreshold(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure3(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce("figure3", f.Format())
		}
	}
}

// BenchmarkAblationEditDistance compares DL, Levenshtein and spamsum
// scoring end to end (ablation A1).
func BenchmarkAblationEditDistance(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblationEditDistance(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce("a1", a.Format())
		}
	}
}

// BenchmarkAblationNeededLibs measures the paper's future-work ldd
// feature (ablation A2).
func BenchmarkAblationNeededLibs(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblationNeededLibs(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce("a2", a.Format())
		}
	}
}

// BenchmarkAblationModels compares the Random Forest against KNN, SVM and
// the crypto-hash/name baselines (ablation A3).
func BenchmarkAblationModels(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblationModels(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce("a3", a.Format())
		}
	}
}

// BenchmarkAblationStripped measures the stripped-binary limitation
// (ablation A4).
func BenchmarkAblationStripped(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblationStripped(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce("a4", a.Format())
		}
	}
}

// BenchmarkAblationDynamic compares static fuzzy hashing against dynamic
// execution fingerprints and their combination (ablation A5, the paper's
// §6 future work).
func BenchmarkAblationDynamic(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblationDynamic(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce("a5", a.Format())
		}
	}
}

// BenchmarkConfusionPairs extracts the heaviest misclassification pairs
// (the Augustus/AUGUSTUS view of Table 4).
func BenchmarkConfusionPairs(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunConfusionPairs(p, 12)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce("confusion", c.Format())
		}
	}
}

// BenchmarkClassifyThroughput times single-sample classification — the
// per-job cost a Slurm-prolog deployment of the paper's workflow would
// pay.
func BenchmarkClassifyThroughput(b *testing.B) {
	p := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Classifier.Classify(&p.Test[i%len(p.Test)])
	}
}

// BenchmarkEngineThroughput measures the serving engine against the
// paths it wraps. "warm" is the duplicate-submission common case — every
// prediction served from the exact-hash cache; "uncached" is the direct
// per-sample Classify it replaces (the warm/uncached ratio is the
// acceptance bar for caching); "cold-batched" pushes the whole test set
// through the micro-batcher with caching disabled, against
// "batch-direct", the classifier's own ClassifyBatch on the same stream.
func BenchmarkEngineThroughput(b *testing.B) {
	p := benchPipeline(b)

	b.Run("warm", func(b *testing.B) {
		eng := NewEngine(p.Classifier, EngineOptions{})
		defer eng.Close()
		for i := range p.Test {
			eng.Classify(&p.Test[i]) // prime the cache
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Classify(&p.Test[i%len(p.Test)])
		}
		b.StopTimer()
		if st := eng.Stats(); st.Hits < uint64(b.N) {
			b.Fatalf("warm run missed the cache: %+v", st)
		}
	})

	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Classifier.Classify(&p.Test[i%len(p.Test)])
		}
	})

	b.Run("cold-batched", func(b *testing.B) {
		eng := NewEngine(p.Classifier, EngineOptions{CacheEntries: -1})
		defer eng.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.ClassifyAll(p.Test)
		}
		b.StopTimer()
		b.ReportMetric(float64(len(p.Test)), "samples/op")
	})

	b.Run("batch-direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Classifier.ClassifyBatch(p.Test)
		}
		b.StopTimer()
		b.ReportMetric(float64(len(p.Test)), "samples/op")
	})
}

// BenchmarkEngineSwap measures serving throughput while the backend is
// hot-swapped mid-flood: a second model generation (a Save/Load clone,
// so swapping costs no retraining) is installed every half millisecond
// while parallel callers classify a duplicate-heavy stream. Each swap
// epochs the prediction cache, so the measured cost is the real
// redeployment price — re-warming the cache — on top of the drain; read
// it alongside BenchmarkEngineThroughput's warm/uncached pair.
func BenchmarkEngineSwap(b *testing.B) {
	p := benchPipeline(b)
	var buf bytes.Buffer
	if err := p.Classifier.Save(&buf); err != nil {
		b.Fatal(err)
	}
	clone, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		b.Fatal(err)
	}

	eng := NewEngine(p.Classifier, EngineOptions{})
	defer eng.Close()
	for i := range p.Test {
		eng.Classify(&p.Test[i]) // prime the first epoch's cache
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		generations := [2]*Classifier{clone, p.Classifier}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(500 * time.Microsecond):
				eng.Swap(generations[i%2])
			}
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			eng.Classify(&p.Test[i%len(p.Test)])
			i++
		}
	})
	b.StopTimer()
	close(stop)
	swapper.Wait()
	b.ReportMetric(float64(eng.Stats().Swaps), "swaps")
}

// BenchmarkFeaturize times similarity-feature extraction for one sample
// against all class profiles, on the default (index-backed) path.
func BenchmarkFeaturize(b *testing.B) {
	p := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Classifier.Featurize(&p.Test[i%len(p.Test)])
	}
}
