package retrain

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rf"
	"repro/internal/serve"
	"repro/internal/synth"
)

// ----- shared fixture ---------------------------------------------------

var (
	fixOnce     sync.Once
	fixErr      error
	fixSamples  []dataset.Sample // Alpha, Beta and Gamma, 10 each
	fixAB       *core.Classifier // incumbent: trained without Gamma
	fixAll      *core.Classifier // trained on all three classes
	fixDegraded *core.Classifier // predicts everything unknown
)

func fixture(t testing.TB) {
	t.Helper()
	fixOnce.Do(func() {
		corpus, err := synth.Generate([]synth.ClassSpec{
			{Name: "Alpha", Samples: 10},
			{Name: "Beta", Samples: 10},
			{Name: "Gamma", Samples: 10},
		}, synth.Options{Seed: 7})
		if err != nil {
			fixErr = err
			return
		}
		fixSamples, err = dataset.FromCorpus(corpus, 0)
		if err != nil {
			fixErr = err
			return
		}
		cfg := core.Config{Threshold: 0.5, Seed: 11, Forest: rf.Params{NumTrees: 40}}
		var ab []dataset.Sample
		for i := range fixSamples {
			if fixSamples[i].Class != "Gamma" {
				ab = append(ab, fixSamples[i])
			}
		}
		if fixAB, err = core.Train(ab, cfg); err != nil {
			fixErr = err
			return
		}
		if fixAll, err = core.Train(fixSamples, cfg); err != nil {
			fixErr = err
			return
		}
		if fixDegraded, err = core.Train(fixSamples, cfg); err != nil {
			fixErr = err
			return
		}
		// A threshold no confidence can reach demotes every prediction
		// to unknown: a deliberately useless candidate.
		fixDegraded.SetThreshold(1.5)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
}

// corpusSamples exposes the fixture samples to the store tests.
func corpusSamples(t testing.TB) []dataset.Sample {
	fixture(t)
	return fixSamples
}

// prebuilt returns a TrainFunc that ignores the training set and hands
// back clf — for tests that exercise triggers, gating and artifacts
// without paying for a real fit.
func prebuilt(clf *core.Classifier) func([]dataset.Sample, core.Config) (*core.Classifier, error) {
	return func([]dataset.Sample, core.Config) (*core.Classifier, error) { return clf, nil }
}

// fillStore harvests every fixture sample under its ground-truth label.
func fillStore(t *testing.T, r *Retrainer) {
	t.Helper()
	for i := range fixSamples {
		if !r.HarvestLabeled(&fixSamples[i], fixSamples[i].Class) {
			t.Fatalf("sample %d not admitted", i)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ----- cycle outcomes ---------------------------------------------------

func TestRunNowInsufficientData(t *testing.T) {
	fixture(t)
	engine := serve.New(fixAB, serve.Options{})
	defer engine.Close()
	rt, err := New(engine, fixAB, Options{MinNewSamples: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	res := rt.RunNow("kick")
	if res.Promoted || res.Err == "" {
		t.Fatalf("empty store should fail the cycle: %+v", res)
	}
	st := rt.Stats()
	if st.Runs != 1 || st.Failures != 1 || st.Promotions != 0 {
		t.Fatalf("stats = %+v, want one failed run", st)
	}
}

// TestRejectionKeepsIncumbentBitIdentical is the satellite differential:
// a gate rejection must leave the serving engine's predictions
// bit-identical to the pre-retrain stream, with no swap installed.
func TestRejectionKeepsIncumbentBitIdentical(t *testing.T) {
	fixture(t)
	engine := serve.New(fixAll, serve.Options{})
	defer engine.Close()
	rt, err := New(engine, fixAll, Options{
		MinNewSamples: -1,
		TrainFunc:     prebuilt(fixDegraded),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	fillStore(t, rt)

	before := make([]core.Prediction, len(fixSamples))
	for i := range fixSamples {
		before[i] = fixAll.Classify(&fixSamples[i])
	}

	res := rt.RunNow("kick")
	if res.Promoted {
		t.Fatalf("degraded candidate promoted: %+v", res)
	}
	if res.CandidateF1 >= res.IncumbentF1 {
		t.Fatalf("degraded candidate scored %v >= incumbent %v", res.CandidateF1, res.IncumbentF1)
	}
	if len(res.PerClassDelta) == 0 {
		t.Fatal("rejection recorded no per-class deltas")
	}
	if st := engine.Stats(); st.Swaps != 0 {
		t.Fatalf("rejection installed a swap: %+v", st)
	}
	for i := range fixSamples {
		after := engine.Classify(&fixSamples[i])
		if after != before[i] {
			t.Fatalf("sample %d prediction drifted after rejection: %+v vs %+v", i, after, before[i])
		}
	}
	if st := rt.Stats(); st.Rejections != 1 {
		t.Fatalf("stats = %+v, want one rejection", st)
	}
}

// TestRetrainEndToEndPromotion is the acceptance scenario: an engine
// serving scripted traffic harvests labels, the sample trigger fires,
// the candidate passes the holdout gate, Swap promotes it with no
// dropped requests, and the metrics registry shows the promotion; after
// the swap the previously-unknown class is recognised.
func TestRetrainEndToEndPromotion(t *testing.T) {
	fixture(t)
	reg := metrics.NewRegistry()
	engine := serve.New(fixAB, serve.Options{})
	defer engine.Close()
	rt, err := New(engine, fixAB, Options{
		MinNewSamples: len(fixSamples),
		MinConfidence: 0.5,
		Margin:        0.01,
		Registry:      reg,
		Train:         core.Config{Threshold: 0.5, Seed: 11, Forest: rf.Params{NumTrees: 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Scripted traffic keeps flowing for the whole scenario; every
	// request must be answered (the engine blocks until it is, so
	// returning at all is the no-drop proof).
	stop := make(chan struct{})
	var served atomic.Uint64
	var trafficWG sync.WaitGroup
	for w := 0; w < 4; w++ {
		trafficWG.Add(1)
		go func(w int) {
			defer trafficWG.Done()
			for i := w; ; i = (i + 1) % len(fixSamples) {
				select {
				case <-stop:
					return
				default:
				}
				s := fixSamples[i]
				engine.Classify(&s)
				served.Add(1)
			}
		}(w)
	}

	// Harvest: Alpha and Beta self-label off served confident
	// predictions; Gamma — unknown to the incumbent — arrives as
	// operator-confirmed ground truth. The final admit crosses
	// MinNewSamples and triggers the background cycle.
	for i := range fixSamples {
		s := fixSamples[i]
		if s.Class == "Gamma" {
			if !rt.HarvestLabeled(&s, "Gamma") {
				t.Fatalf("Gamma sample %d not admitted", i)
			}
			continue
		}
		pred := engine.Classify(&s)
		if pred.Label != s.Class {
			t.Fatalf("incumbent mislabels its own training sample %d: %+v", i, pred)
		}
		if !rt.ObservePrediction(&s, pred) {
			t.Fatalf("confident prediction %d not harvested", i)
		}
	}

	waitFor(t, "promotion", func() bool { return rt.Stats().Promotions >= 1 })
	close(stop)
	trafficWG.Wait()
	if served.Load() == 0 {
		t.Fatal("no traffic served during the scenario")
	}

	st := rt.Stats()
	if st.Promotions != 1 || st.Last == nil || !st.Last.Promoted {
		t.Fatalf("stats = %+v, want one promotion", st)
	}
	if st.Last.Trigger != "samples" {
		t.Fatalf("trigger = %q, want samples", st.Last.Trigger)
	}
	if es := engine.Stats(); es.Swaps != 1 {
		t.Fatalf("engine swaps = %d, want 1", es.Swaps)
	}
	// The promoted model recognises the class the incumbent could not.
	correct := 0
	for i := range fixSamples {
		if fixSamples[i].Class != "Gamma" {
			continue
		}
		s := fixSamples[i]
		if engine.Classify(&s).Label == "Gamma" {
			correct++
		}
	}
	if correct < 8 {
		t.Fatalf("promoted model recognises %d/10 Gamma samples", correct)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exposition := buf.String()
	for _, want := range []string{
		"fhc_retrain_promotions_total 1",
		"fhc_retrain_runs_total 1",
		`fhc_retrain_store_samples{class="Gamma"} 10`,
		`fhc_retrain_holdout_macro_f1{model="candidate"}`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestPromoteWhileSwapRacing drives manual engine swaps against
// retraining cycles under the race detector: both paths install
// generations concurrently and the engine keeps answering.
func TestPromoteWhileSwapRacing(t *testing.T) {
	fixture(t)
	engine := serve.New(fixAB, serve.Options{})
	defer engine.Close()
	rt, err := New(engine, fixAB, Options{
		MinNewSamples: -1,
		TrainFunc:     prebuilt(fixAll),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	fillStore(t, rt)

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			rt.InstallIncumbent(fixAB)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			rt.RunNow("kick")
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s := fixSamples[i%len(fixSamples)]
			engine.Classify(&s)
		}
	}()
	wg.Wait()

	st := rt.Stats()
	if st.Runs != 3 {
		t.Fatalf("runs = %d, want 3", st.Runs)
	}
	s := fixSamples[0]
	if pred := engine.Classify(&s); pred.Label == "" {
		t.Fatalf("engine unanswerable after racing swaps: %+v", pred)
	}
}

// ----- triggers ---------------------------------------------------------

func TestSampleTriggerFiresBackgroundCycle(t *testing.T) {
	fixture(t)
	engine := serve.New(fixAll, serve.Options{})
	defer engine.Close()
	rt, err := New(engine, fixAll, Options{
		MinNewSamples: len(fixSamples),
		TrainFunc:     prebuilt(fixAll),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	fillStore(t, rt)
	waitFor(t, "sample-triggered run", func() bool { return rt.Stats().Runs >= 1 })
	if st := rt.Stats(); st.NewSinceRun >= len(fixSamples) {
		t.Fatalf("new-sample counter not reset by the cycle: %+v", st)
	}
}

func TestIntervalTriggerFiresBackgroundCycle(t *testing.T) {
	fixture(t)
	engine := serve.New(fixAll, serve.Options{})
	defer engine.Close()
	rt, err := New(engine, fixAll, Options{
		MinNewSamples: -1,
		Interval:      10 * time.Millisecond,
		TrainFunc:     prebuilt(fixAll),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	fillStore(t, rt)
	waitFor(t, "interval-triggered run", func() bool { return rt.Stats().Runs >= 1 })
	if st := rt.Stats(); st.Last == nil || st.Last.Trigger != "interval" {
		t.Fatalf("stats = %+v, want an interval-triggered run", st)
	}
}

// ----- artifacts --------------------------------------------------------

func TestArtifactPersistenceLatestPointerAndPruning(t *testing.T) {
	fixture(t)
	dir := t.TempDir()
	now := time.Date(2026, 7, 26, 12, 0, 0, 0, time.UTC)
	engine := serve.New(fixAll, serve.Options{})
	defer engine.Close()
	rt, err := New(engine, fixAll, Options{
		MinNewSamples: -1,
		TrainFunc:     prebuilt(fixAll),
		ArtifactDir:   dir,
		KeepArtifacts: 2,
		Now:           func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	fillStore(t, rt)

	var last Result
	for i := 0; i < 3; i++ {
		last = rt.RunNow("kick")
		if !last.Promoted || last.Artifact == "" {
			t.Fatalf("run %d: %+v", i, last)
		}
		now = now.Add(time.Second)
	}

	kept, err := filepath.Glob(filepath.Join(dir, "model-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 2 {
		t.Fatalf("kept %d artifacts, want 2: %v", len(kept), kept)
	}
	pointer, err := os.ReadFile(filepath.Join(dir, LatestPointerName))
	if err != nil {
		t.Fatalf("latest pointer: %v", err)
	}
	if got := strings.TrimSpace(string(pointer)); got != filepath.Base(last.Artifact) {
		t.Fatalf("latest pointer names %q, want %q", got, filepath.Base(last.Artifact))
	}
	// The newest artifact round-trips through the normal swap path.
	clf, err := core.LoadFile(last.Artifact)
	if err != nil {
		t.Fatalf("promoted artifact does not load: %v", err)
	}
	if clf.ModelKind() != fixAll.ModelKind() {
		t.Fatalf("artifact kind %q, want %q", clf.ModelKind(), fixAll.ModelKind())
	}
}

func TestArtifactNameCollisionWithinOneSecond(t *testing.T) {
	fixture(t)
	dir := t.TempDir()
	now := time.Date(2026, 7, 26, 12, 0, 0, 0, time.UTC)
	engine := serve.New(fixAll, serve.Options{})
	defer engine.Close()
	rt, err := New(engine, fixAll, Options{
		MinNewSamples: -1,
		TrainFunc:     prebuilt(fixAll),
		ArtifactDir:   dir,
		Now:           func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	fillStore(t, rt)

	first := rt.RunNow("kick")
	second := rt.RunNow("kick") // same pinned clock second
	if !first.Promoted || !second.Promoted {
		t.Fatalf("runs: %+v / %+v", first, second)
	}
	if first.Artifact == second.Artifact {
		t.Fatalf("same-second promotions share an artifact path %q", first.Artifact)
	}
}

// TestPruneAgeOrderKeepsLatestTarget pins the age ordering: with
// same-second collision suffixes, pruning removes the oldest artifact,
// never the newest one the latest pointer names.
func TestPruneAgeOrderKeepsLatestTarget(t *testing.T) {
	fixture(t)
	dir := t.TempDir()
	now := time.Date(2026, 7, 26, 12, 0, 0, 0, time.UTC)
	engine := serve.New(fixAll, serve.Options{})
	defer engine.Close()
	rt, err := New(engine, fixAll, Options{
		MinNewSamples: -1,
		TrainFunc:     prebuilt(fixAll),
		ArtifactDir:   dir,
		KeepArtifacts: 1,
		Now:           func() time.Time { return now }, // pinned: every run collides
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	fillStore(t, rt)

	var last Result
	for i := 0; i < 3; i++ {
		if last = rt.RunNow("kick"); !last.Promoted {
			t.Fatalf("run %d: %+v", i, last)
		}
	}
	kept, err := filepath.Glob(filepath.Join(dir, "model-*.json"))
	if err != nil || len(kept) != 1 {
		t.Fatalf("kept = %v (%v), want exactly the newest", kept, err)
	}
	if kept[0] != last.Artifact {
		t.Fatalf("pruning kept %q, latest promotion wrote %q", kept[0], last.Artifact)
	}
	pointer, err := os.ReadFile(filepath.Join(dir, LatestPointerName))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(pointer)); got != filepath.Base(last.Artifact) {
		t.Fatalf("latest points at %q, artifact on disk is %q", got, filepath.Base(last.Artifact))
	}
}

// ----- holdout split ----------------------------------------------------

func TestSplitHoldoutDeterministicFrozenAndStratified(t *testing.T) {
	fixture(t)
	samples := append([]dataset.Sample(nil), fixSamples...)
	lone := labelledSample("Lonely", 99)
	samples = append(samples, lone)

	train1, hold1 := splitHoldout(samples, 0.2, 42)
	train2, hold2 := splitHoldout(samples, 0.2, 42)
	if len(train1) != len(train2) || len(hold1) != len(hold2) {
		t.Fatalf("same seed split differently: %d/%d vs %d/%d", len(train1), len(hold1), len(train2), len(hold2))
	}
	for i := range hold1 {
		if hold1[i].Exe != hold2[i].Exe {
			t.Fatalf("same seed split differently at holdout %d", i)
		}
	}

	// Frozen: no sample appears on both sides (content digest is the
	// unique identity; Exe names repeat across versions).
	inTrain := map[[32]byte]bool{}
	for i := range train1 {
		inTrain[train1[i].SHA256] = true
	}
	for i := range hold1 {
		if inTrain[hold1[i].SHA256] {
			t.Fatalf("sample %s/%s in both train and holdout", hold1[i].Class, hold1[i].Exe)
		}
	}

	// Stratified: 20% of each 10-sample class; the singleton trains only.
	holdPerClass := map[string]int{}
	for i := range hold1 {
		holdPerClass[hold1[i].Class]++
	}
	for _, class := range []string{"Alpha", "Beta", "Gamma"} {
		if holdPerClass[class] != 2 {
			t.Fatalf("holdout has %d %s samples, want 2", holdPerClass[class], class)
		}
	}
	if holdPerClass["Lonely"] != 0 {
		t.Fatal("singleton class leaked into the holdout")
	}
	if len(train1)+len(hold1) != len(samples) {
		t.Fatalf("split lost samples: %d + %d != %d", len(train1), len(hold1), len(samples))
	}
}

// ----- install path lock scope ------------------------------------------

// stallBackend blocks inside Classify until released, keeping an
// engine backend call in flight (and therefore any concurrent Swap mid-
// drain) for as long as the test wants.
type stallBackend struct {
	entered chan struct{}
	release chan struct{}
}

func (s *stallBackend) Classify(*dataset.Sample) core.Prediction {
	close(s.entered)
	<-s.release
	return core.Prediction{Label: "stall"}
}

// TestInstallDoesNotHoldStateLockAcrossSwap is the regression test for
// the lockhold finding on the install path: InstallIncumbent used to
// hold r.mu across Engine.Swap, which drains every in-flight call —
// so a single slow call froze Stats and the harvest path for the
// whole drain. The install lock split keeps r.mu to a pointer write:
// with an install provably blocked mid-drain, Stats and a harvest must
// still return immediately.
func TestInstallDoesNotHoldStateLockAcrossSwap(t *testing.T) {
	fixture(t)
	stall := &stallBackend{entered: make(chan struct{}), release: make(chan struct{})}
	engine := serve.New(stall, serve.Options{})
	defer engine.Close()
	rt, err := New(engine, fixAB, Options{MinNewSamples: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Put one backend call in flight on the stalling backend...
	classified := make(chan core.Prediction, 1)
	go func() {
		cp := fixSamples[0]
		classified <- engine.Classify(&cp)
	}()
	<-stall.entered

	// ...so this install blocks inside Swap's drain.
	installed := make(chan struct{})
	go func() {
		rt.InstallIncumbent(fixAll)
		close(installed)
	}()
	select {
	case <-installed:
		t.Fatal("install finished while a backend call was still in flight: drain invariant broken")
	case <-time.After(50 * time.Millisecond):
	}

	// The retrainer's state lock must remain free while the install is
	// parked in the drain.
	probed := make(chan struct{})
	go func() {
		rt.Stats()
		cp := fixSamples[1]
		rt.HarvestLabeled(&cp, cp.Class)
		close(probed)
	}()
	select {
	case <-probed:
	case <-time.After(5 * time.Second):
		t.Fatal("Stats/harvest blocked behind an in-flight install: r.mu is being held across Engine.Swap")
	}

	close(stall.release)
	<-classified
	waitFor(t, "install to complete", func() bool {
		select {
		case <-installed:
			return true
		default:
			return false
		}
	})
	if got := engine.Stats().Swaps; got != 1 {
		t.Fatalf("engine recorded %d swaps, want 1", got)
	}
}
