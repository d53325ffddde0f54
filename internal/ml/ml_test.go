package ml

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// mkSamples builds count samples per class, marking unknown classes.
func mkSamples(counts map[string]int, unknown map[string]bool) []dataset.Sample {
	var out []dataset.Sample
	// Deterministic order: sorted class iteration is not needed for these
	// tests because SplitTwoPhase groups internally, but keep it stable.
	classes := make([]string, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	for _, c := range classes {
		for i := 0; i < counts[c]; i++ {
			out = append(out, dataset.Sample{
				Class:        c,
				Version:      "v",
				Exe:          "x",
				UnknownClass: unknown[c],
			})
		}
	}
	return out
}

func TestSplitTwoPhasePaperMode(t *testing.T) {
	samples := mkSamples(
		map[string]int{"A": 10, "B": 5, "U": 7},
		map[string]bool{"U": true},
	)
	split, err := SplitTwoPhase(samples, SplitOptions{Mode: PaperSplit, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(split.UnknownClasses) != 1 || split.UnknownClasses[0] != "U" {
		t.Fatalf("unknown classes = %v", split.UnknownClasses)
	}
	if len(split.KnownClasses) != 2 {
		t.Fatalf("known classes = %v", split.KnownClasses)
	}
	// All U samples must be in test; no U sample in train.
	for _, i := range split.TrainIdx {
		if samples[i].Class == "U" {
			t.Fatal("unknown-class sample leaked into training set")
		}
	}
	if got := split.NumUnknownTest(samples); got != 7 {
		t.Fatalf("NumUnknownTest = %d, want 7", got)
	}
	// 60/40 split of 10 and 5: train 6+3=9, test 4+2+7=13.
	if len(split.TrainIdx) != 9 {
		t.Fatalf("train size = %d, want 9", len(split.TrainIdx))
	}
	if len(split.TestIdx) != 13 {
		t.Fatalf("test size = %d, want 13", len(split.TestIdx))
	}
	// Disjoint and complete.
	seen := map[int]int{}
	for _, i := range split.TrainIdx {
		seen[i]++
	}
	for _, i := range split.TestIdx {
		seen[i]++
	}
	if len(seen) != len(samples) {
		t.Fatalf("split covers %d samples, want %d", len(seen), len(samples))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("sample %d appears %d times", i, n)
		}
	}
}

func TestSplitTwoPhaseDeterministic(t *testing.T) {
	samples := mkSamples(map[string]int{"A": 20, "B": 20, "C": 20, "D": 20, "E": 20}, nil)
	a, err := SplitTwoPhase(samples, SplitOptions{Mode: RandomSplit, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SplitTwoPhase(samples, SplitOptions{Mode: RandomSplit, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.TrainIdx) != len(b.TrainIdx) {
		t.Fatal("same seed produced different splits")
	}
	for i := range a.TrainIdx {
		if a.TrainIdx[i] != b.TrainIdx[i] {
			t.Fatal("same seed produced different splits")
		}
	}
	c, err := SplitTwoPhase(samples, SplitOptions{Mode: RandomSplit, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.UnknownClasses) == 0 {
		t.Fatal("random split selected no unknown classes")
	}
}

func TestSplitTwoPhaseRandomFraction(t *testing.T) {
	counts := map[string]int{}
	for _, c := range strings.Split("A B C D E F G H I J", " ") {
		counts[c] = 4
	}
	samples := mkSamples(counts, nil)
	split, err := SplitTwoPhase(samples, SplitOptions{
		Mode: RandomSplit, UnknownClassFraction: 0.2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(split.UnknownClasses) != 2 {
		t.Fatalf("unknown classes = %v, want 2 of 10", split.UnknownClasses)
	}
}

func TestSplitPaperModeRequiresMarkers(t *testing.T) {
	samples := mkSamples(map[string]int{"A": 3}, nil)
	if _, err := SplitTwoPhase(samples, SplitOptions{Mode: PaperSplit}); err == nil {
		t.Fatal("paper split without markers succeeded")
	}
}

func TestSplitEmpty(t *testing.T) {
	if _, err := SplitTwoPhase(nil, SplitOptions{}); err == nil {
		t.Fatal("empty split succeeded")
	}
}

func TestSingleSampleClassTrainsOnIt(t *testing.T) {
	samples := mkSamples(map[string]int{"A": 1, "B": 10, "U": 3}, map[string]bool{"U": true})
	split, err := SplitTwoPhase(samples, SplitOptions{Mode: PaperSplit, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	foundA := false
	for _, i := range split.TrainIdx {
		if samples[i].Class == "A" {
			foundA = true
		}
	}
	if !foundA {
		t.Fatal("single-sample class missing from training set")
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestClassificationReportPerfect(t *testing.T) {
	y := []string{"a", "b", "c", "a"}
	r, err := ClassificationReport(y, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r.Accuracy, 1) || !approx(r.Macro.F1, 1) || !approx(r.Weighted.F1, 1) {
		t.Fatalf("perfect predictions scored %+v", r)
	}
}

func TestClassificationReportKnownValues(t *testing.T) {
	yTrue := []string{"a", "a", "a", "b", "b", "c"}
	yPred := []string{"a", "a", "b", "b", "c", "c"}
	r, err := ClassificationReport(yTrue, yPred)
	if err != nil {
		t.Fatal(err)
	}
	// a: tp=2 fp=0 fn=1 -> p=1, r=2/3, f1=0.8
	a := r.PerClass["a"]
	if !approx(a.Precision, 1) || !approx(a.Recall, 2.0/3) || !approx(a.F1, 0.8) || a.Support != 3 {
		t.Fatalf("class a metrics = %+v", a)
	}
	// b: tp=1 fp=1 fn=1 -> p=0.5, r=0.5, f1=0.5
	b := r.PerClass["b"]
	if !approx(b.Precision, 0.5) || !approx(b.Recall, 0.5) || !approx(b.F1, 0.5) {
		t.Fatalf("class b metrics = %+v", b)
	}
	// c: tp=1 fp=1 fn=0 -> p=0.5, r=1, f1=2/3
	c := r.PerClass["c"]
	if !approx(c.Precision, 0.5) || !approx(c.Recall, 1) || !approx(c.F1, 2.0/3) {
		t.Fatalf("class c metrics = %+v", c)
	}
	// micro == accuracy == 4/6.
	if !approx(r.Micro.F1, 4.0/6) || !approx(r.Accuracy, 4.0/6) {
		t.Fatalf("micro = %+v, accuracy = %v", r.Micro, r.Accuracy)
	}
	// macro f1 = mean(0.8, 0.5, 2/3).
	if !approx(r.Macro.F1, (0.8+0.5+2.0/3)/3) {
		t.Fatalf("macro f1 = %v", r.Macro.F1)
	}
	// weighted f1 = (3*0.8 + 2*0.5 + 1*2/3)/6.
	if !approx(r.Weighted.F1, (3*0.8+2*0.5+2.0/3)/6) {
		t.Fatalf("weighted f1 = %v", r.Weighted.F1)
	}
}

func TestClassificationReportPredictedOnlyLabel(t *testing.T) {
	// A label appearing only in predictions must get a row with support 0,
	// like sklearn.
	r, err := ClassificationReport([]string{"a", "a"}, []string{"a", "zzz"})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := r.PerClass["zzz"]
	if !ok {
		t.Fatal("predicted-only label missing from report")
	}
	if m.Support != 0 || m.Precision != 0 {
		t.Fatalf("predicted-only label metrics = %+v", m)
	}
}

func TestClassificationReportErrors(t *testing.T) {
	if _, err := ClassificationReport([]string{"a"}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := ClassificationReport(nil, nil); err == nil {
		t.Fatal("empty report accepted")
	}
}

func TestReportFormat(t *testing.T) {
	r, err := ClassificationReport([]string{"-1", "Velvet"}, []string{"-1", "Velvet"})
	if err != nil {
		t.Fatal(err)
	}
	text := r.Format()
	for _, want := range []string{"precision", "recall", "f1-score", "support", "micro avg", "macro avg", "weighted avg", "Velvet"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestReportCSVAndMarkdown(t *testing.T) {
	r, err := ClassificationReport(
		[]string{"a", "a", "b"},
		[]string{"a", "b", "b"},
	)
	if err != nil {
		t.Fatal(err)
	}
	csv := r.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	// header + 2 classes + 3 averages
	if len(lines) != 6 {
		t.Fatalf("CSV has %d lines, want 6:\n%s", len(lines), csv)
	}
	if lines[0] != "label,precision,recall,f1,support" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], `"a",`) {
		t.Fatalf("CSV row = %q", lines[1])
	}
	md := r.Markdown()
	if !strings.Contains(md, "| label |") || !strings.Contains(md, "**macro avg**") {
		t.Fatalf("markdown:\n%s", md)
	}
	if strings.Count(md, "\n") != 2+2+3 {
		t.Fatalf("markdown has wrong row count:\n%s", md)
	}
}

func TestConfusionMatrix(t *testing.T) {
	labels, m, err := ConfusionMatrix(
		[]string{"a", "a", "b", "b"},
		[]string{"a", "b", "b", "b"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 2 || labels[0] != "a" || labels[1] != "b" {
		t.Fatalf("labels = %v", labels)
	}
	if m[0][0] != 1 || m[0][1] != 1 || m[1][0] != 0 || m[1][1] != 2 {
		t.Fatalf("matrix = %v", m)
	}
}

func TestF1ScoresCombined(t *testing.T) {
	f := F1Scores{Micro: 0.89, Macro: 0.90, Weighted: 0.90}
	if !approx(f.Combined(), 2.69) {
		t.Fatalf("combined = %v", f.Combined())
	}
}
