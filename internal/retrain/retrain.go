// Package retrain closes the loop the paper leaves open: its Figure-1
// deployment classifies a live cluster where new applications keep
// appearing, so a static model decays, and the companion execution-
// fingerprint-dictionary work argues the recognition corpus must grow
// incrementally as executions are observed. This package makes the
// serving system retrain itself from the traffic it serves:
//
//   - labelled windows are harvested off the serving/monitoring stream
//     into a bounded, class-balanced reservoir Store (confident
//     predictions self-label behind a confidence gate; operator-supplied
//     ground truth enters via HarvestLabeled), persisted as JSON so a
//     restart does not lose the corpus;
//   - a background loop retrains on a trigger policy — N newly harvested
//     samples, a wall-clock interval, or an explicit Kick — through the
//     existing model registry and inner-split threshold tuning, entirely
//     off the serving hot path;
//   - promotion is gated on a frozen holdout: the candidate must
//     meet-or-beat the incumbent's macro-F1 within a configurable
//     margin (per-class deltas are recorded either way); on success the
//     engine hot-swaps with zero downtime and the artifact is persisted
//     as model-YYYYMMDD-HHMMSS.json plus a "latest" pointer, keeping
//     the last K artifacts for rollback; on rejection the incumbent
//     keeps serving, bit-identically.
//
// Concurrency contract: every Retrainer method — the harvest surface
// (HarvestLabeled, ObservePrediction, BackfillCollector), Kick, RunNow,
// Stats, SetIncumbent, Close — is safe to call from any number of
// goroutines while the engine serves. Retraining cycles are serialised
// internally (concurrent RunNow calls queue); harvesting never blocks on
// a running cycle beyond one short store mutex. Close stops the
// background loop, persists the store and is idempotent.
package retrain

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/openset"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/serve"
)

// unknownLabel mirrors the classifier's unknown class: unknowns are
// never harvested — a sample the model cannot name is exactly the
// sample self-training must not learn from.
const unknownLabel = core.UnknownLabel

// Options configures a Retrainer. The zero value selects serving
// defaults: a 4096-sample memory-only store, retrain after 256 new
// samples, a 0.95 self-labelling confidence gate, a 20% holdout and a
// strict meet-or-beat promotion gate.
type Options struct {
	// Store configures the labelled-sample reservoir.
	Store StoreOptions
	// MinNewSamples triggers a retrain once this many new samples have
	// been harvested since the last cycle. Default 256; negative
	// disables the sample trigger.
	MinNewSamples int
	// Interval triggers a retrain on a wall clock. 0 disables the
	// interval trigger (samples and explicit kicks still work).
	Interval time.Duration
	// HoldoutFraction is the per-class fraction of the store frozen as
	// the promotion-gate holdout; the candidate never trains on it.
	// Default 0.2, clamped to [0.05, 0.5].
	HoldoutFraction float64
	// Margin is how far the candidate's holdout macro-F1 may trail the
	// incumbent's and still promote. 0 (the default) is strict
	// meet-or-beat; small positive values accept statistical noise on
	// small holdouts.
	Margin float64
	// MinConfidence gates self-labelling: ObservePrediction harvests
	// only predictions at or above this confidence. Default 0.95.
	MinConfidence float64
	// MinEvidence gates self-labelling on the open-set evidence
	// channel: a prediction whose best-class fuzzy-hash evidence
	// (0–100) falls below this floor is skipped even when its model
	// confidence clears MinConfidence. This is the closed-set
	// poisoning fix — a forest (or k=1 nearest-neighbour) can report
	// full confidence about a binary that resembles nothing it trained
	// on, and harvesting that guess as ground truth teaches the next
	// model its mistake. The floor applies whether or not an open-set
	// calibration is installed; predictions carrying no evidence
	// channel (Evidence < 0) pass it. Default 25; negative disables.
	MinEvidence float64
	// Calibrate retunes each candidate's open-set calibration
	// (per-class margin and evidence floors plus the drift baseline)
	// on the cycle's frozen holdout before the promotion gate scores
	// it, so a promoted artifact always carries thresholds tuned on
	// data it never trained on. Even when false, a candidate is
	// calibrated whenever the incumbent carries a calibration —
	// promotion must never silently shed the abstention policy.
	Calibrate bool
	// CalibrateOptions tunes candidate calibration (quantile budget,
	// per-class minimum). The zero value selects openset defaults.
	CalibrateOptions openset.CalibrateOptions
	// Drift, when non-nil, is re-baselined from the newly installed
	// model's calibration on every install — promotion, manual swap
	// through InstallIncumbent, rollback — so served traffic is never
	// tested for drift against a baseline belonging to a model that no
	// longer serves.
	Drift *openset.Detector
	// MinStoreSamples is the smallest store that may trigger a cycle;
	// below it every trigger records a failure ("insufficient data").
	// Default 8 (the classifier itself needs two classes and the gate
	// needs a holdout).
	MinStoreSamples int
	// ArtifactDir, when non-empty, persists every promoted candidate as
	// model-YYYYMMDD-HHMMSS.json there, maintains a "latest" pointer
	// file naming the newest artifact, and prunes to KeepArtifacts.
	ArtifactDir string
	// KeepArtifacts bounds the promoted artifacts retained for
	// rollback. Default 5.
	KeepArtifacts int
	// Train is the base training configuration for candidates: model
	// kind (default: the incumbent's kind), features, seed, and
	// threshold (0 keeps the paper's inner-split threshold tuning).
	// The holdout split reseeds deterministically per cycle from
	// Train.Seed and the run count.
	Train core.Config
	// TrainFunc substitutes the candidate-training function; default
	// core.Train. Tests inject degraded candidates through it.
	TrainFunc func(samples []dataset.Sample, cfg core.Config) (*core.Classifier, error)
	// Registry, when non-nil, receives the retrain metrics
	// (fhc_retrain_*): runs, promotions, rejections, failures, train
	// duration, holdout macro-F1 and per-class store population.
	Registry *metrics.Registry
	// Now substitutes the clock; default time.Now. Tests pin it.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.MinNewSamples == 0 {
		o.MinNewSamples = 256
	}
	if o.HoldoutFraction == 0 {
		o.HoldoutFraction = 0.2
	}
	o.HoldoutFraction = math.Min(0.5, math.Max(0.05, o.HoldoutFraction))
	if o.MinConfidence == 0 {
		o.MinConfidence = 0.95
	}
	if o.MinEvidence == 0 {
		o.MinEvidence = 25
	}
	if o.MinStoreSamples == 0 {
		o.MinStoreSamples = 8
	}
	if o.KeepArtifacts <= 0 {
		o.KeepArtifacts = 5
	}
	if o.TrainFunc == nil {
		o.TrainFunc = core.Train
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Result describes one retraining cycle, promoted or not.
type Result struct {
	// Trigger is what started the cycle: "samples", "interval", "kick",
	// "drift", "http" or "bench".
	Trigger string `json:"trigger"`
	// Start and DurationSeconds time the cycle (training included).
	Start           time.Time `json:"start"`
	DurationSeconds float64   `json:"duration_seconds"`
	// TrainSamples and HoldoutSamples describe the frozen split.
	TrainSamples   int `json:"train_samples"`
	HoldoutSamples int `json:"holdout_samples"`
	// Classes are the candidate's training classes.
	Classes []string `json:"classes,omitempty"`
	// CandidateF1 and IncumbentF1 are the macro-F1 scores the promotion
	// gate compared: per-class F1 averaged over the holdout's true
	// classes, identically for both models (a prediction demoted to
	// unknown costs recall on its true class).
	CandidateF1 float64 `json:"candidate_macro_f1"`
	IncumbentF1 float64 `json:"incumbent_macro_f1"`
	// PerClassDelta is candidate minus incumbent F1 per holdout class.
	PerClassDelta map[string]float64 `json:"per_class_delta,omitempty"`
	// Promoted reports whether the candidate was installed.
	Promoted bool `json:"promoted"`
	// Reason explains the outcome in one sentence.
	Reason string `json:"reason"`
	// Artifact is the persisted artifact path of a promoted candidate.
	Artifact string `json:"artifact,omitempty"`
	// Err carries the failure text of a cycle that never reached the
	// gate (too little data, training error).
	Err string `json:"error,omitempty"`
}

// Stats is a snapshot of retrainer activity.
type Stats struct {
	// Runs counts completed cycles; Promotions + Rejections + Failures
	// always equals Runs.
	Runs       uint64 `json:"runs"`
	Promotions uint64 `json:"promotions"`
	Rejections uint64 `json:"rejections"`
	Failures   uint64 `json:"failures"`
	// Harvested counts samples admitted to the store; HarvestSkipped
	// counts offered samples that failed the gate (unknown label, low
	// confidence, duplicate content).
	Harvested      uint64 `json:"harvested"`
	HarvestSkipped uint64 `json:"harvest_skipped"`
	// NewSinceRun counts harvested samples since the last cycle — the
	// sample trigger fires when it reaches MinNewSamples.
	NewSinceRun int `json:"new_since_run"`
	// StoreSize and StorePerClass describe the reservoir.
	StoreSize     int            `json:"store_size"`
	StorePerClass map[string]int `json:"store_per_class,omitempty"`
	// StoreEvicted counts reservoir evictions (class-balanced,
	// oldest-per-class first).
	StoreEvicted uint64 `json:"store_evicted"`
	// Last is the most recent cycle's result, nil before the first.
	Last *Result `json:"last,omitempty"`
}

// Retrainer drives continuous learning over one serving engine: it owns
// the training store, the background trigger loop, the promotion gate
// and artifact persistence. Create with New, release with Close.
type Retrainer struct {
	opt    Options
	engine *serve.Engine
	store  *Store

	mu        sync.Mutex
	incumbent *core.Classifier
	last      *Result

	// runMu serialises retraining cycles end to end; holding it across
	// the (slow) TrainFunc is its entire purpose.
	//
	// fhcvet:coarse
	runMu sync.Mutex

	// installMu serialises install operations — the engine swap plus the
	// incumbent update — so the engine always ends up serving the gate's
	// baseline even when a manual install races a promotion. It is held
	// across Engine.Swap's in-flight drain by design (that drain is what
	// it serialises) and is never taken by readers: Stats and the
	// observation paths take only r.mu, which install holds for a single
	// pointer write.
	//
	// fhcvet:coarse
	installMu sync.Mutex

	runs, promotions, rejections, failures atomic.Uint64
	harvested, skipped                     atomic.Uint64
	newSince                               atomic.Int64

	kick      chan string
	stop      chan struct{}
	loopWG    sync.WaitGroup
	closeOnce sync.Once

	trainSeconds *metrics.Histogram
	holdoutF1    *metrics.GaugeVec
}

// trainSecondsBuckets span quick test-scale fits through paper-scale
// grid searches.
var trainSecondsBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// New builds a retrainer over a serving engine and the classifier it
// currently serves (the gate's first incumbent). The store loads from
// Options.Store.Path when present, and the background trigger loop
// starts immediately; Close stops it and persists the store.
func New(engine *serve.Engine, incumbent *core.Classifier, opt Options) (*Retrainer, error) {
	if engine == nil || incumbent == nil {
		return nil, fmt.Errorf("retrain: New requires an engine and its incumbent classifier")
	}
	opt = opt.withDefaults()
	if opt.Train.Model == "" {
		opt.Train.Model = incumbent.ModelKind()
	}
	store, err := NewStore(opt.Store)
	if err != nil {
		return nil, err
	}
	r := &Retrainer{
		opt:       opt,
		engine:    engine,
		store:     store,
		incumbent: incumbent,
		kick:      make(chan string, 1),
		stop:      make(chan struct{}),
	}
	r.registerMetrics()
	r.loopWG.Add(1)
	go r.loop()
	return r, nil
}

// registerMetrics exports the retrainer's atomic counters and the
// store's per-class population to the configured registry; like the
// serving layer, observability samples live state at scrape time rather
// than adding bookkeeping to the harvest path.
func (r *Retrainer) registerMetrics() {
	reg := r.opt.Registry
	if reg == nil {
		reg = metrics.NewRegistry() // instruments still work, unexposed
	}
	reg.CounterFunc("fhc_retrain_runs_total",
		"Completed retraining cycles.",
		func() float64 { return float64(r.runs.Load()) })
	reg.CounterFunc("fhc_retrain_promotions_total",
		"Candidates that passed the holdout gate and were hot-swapped in.",
		func() float64 { return float64(r.promotions.Load()) })
	reg.CounterFunc("fhc_retrain_rejections_total",
		"Candidates rejected by the holdout gate; the incumbent kept serving.",
		func() float64 { return float64(r.rejections.Load()) })
	reg.CounterFunc("fhc_retrain_failures_total",
		"Cycles that never reached the gate (insufficient data, training error).",
		func() float64 { return float64(r.failures.Load()) })
	reg.CounterFunc("fhc_retrain_harvested_total",
		"Labelled samples admitted to the training store.",
		func() float64 { return float64(r.harvested.Load()) })
	reg.CounterFunc("fhc_retrain_harvest_skipped_total",
		"Offered samples that failed the harvest gate (unknown or ambiguous verdict, low confidence, weak evidence, duplicate).",
		func() float64 { return float64(r.skipped.Load()) })
	reg.GaugeFunc("fhc_retrain_new_samples",
		"Samples harvested since the last cycle; the sample trigger fires at the configured threshold.",
		func() float64 { return float64(r.newSince.Load()) })
	reg.GaugeFunc("fhc_retrain_store_size",
		"Training-store population across all classes.",
		func() float64 { return float64(r.store.Len()) })
	reg.CounterFunc("fhc_retrain_store_evicted_total",
		"Training-store samples evicted to respect the cap (oldest of the largest class first).",
		func() float64 { return float64(r.store.Evicted()) })
	r.trainSeconds = reg.Histogram("fhc_retrain_train_seconds",
		"Wall-clock duration of one retraining cycle, training and gating included.",
		trainSecondsBuckets)
	r.holdoutF1 = reg.GaugeVec("fhc_retrain_holdout_macro_f1",
		"Holdout macro-F1 of the last cycle, by model (candidate vs incumbent).", "model")

	// Per-class store population refreshes once per scrape; classes the
	// reservoir has dropped entirely are pinned to zero rather than
	// frozen at their last value.
	storeGauge := reg.GaugeVec("fhc_retrain_store_samples",
		"Training-store samples by class.", "class")
	seen := map[string]bool{}
	reg.BeforeWrite(func() {
		perClass := r.store.PerClass()
		for class := range seen {
			if _, live := perClass[class]; !live {
				storeGauge.With(class).Set(0)
			}
		}
		for class, n := range perClass {
			seen[class] = true
			storeGauge.With(class).Set(float64(n))
		}
	})
}

// loop waits for triggers: the interval ticker, the sample-count
// signal, and explicit kicks. It exits on Close.
func (r *Retrainer) loop() {
	defer r.loopWG.Done()
	var tick <-chan time.Time
	if r.opt.Interval > 0 {
		t := time.NewTicker(r.opt.Interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-r.stop:
			return
		case trigger := <-r.kick:
			r.RunNow(trigger)
		case <-tick:
			r.RunNow("interval")
		}
	}
}

// trigger requests an asynchronous cycle; a trigger already pending
// absorbs later ones.
func (r *Retrainer) trigger(reason string) {
	select {
	case r.kick <- reason:
	default:
	}
}

// Kick requests a retraining cycle from the background loop and returns
// immediately; Stats reports the outcome once the cycle completes. Use
// RunNow to block for the result instead.
func (r *Retrainer) Kick() { r.trigger("kick") }

// KickDrift requests an asynchronous retraining cycle attributed to a
// population-drift alarm — the hook the drift detector's alarm path
// calls, so a distribution shift in served traffic refreshes the model
// without an operator in the loop.
func (r *Retrainer) KickDrift() { r.trigger("drift") }

// HarvestLabeled admits one sample into the training store under a
// ground-truth label (an operator confirming what a binary is — the
// paper's execution-fingerprint dictionary growing by observation).
// Ground truth is authoritative: it relabels already-stored content
// when the operator's class differs, and a later self-label can never
// flip it back. It reports whether the store changed.
func (r *Retrainer) HarvestLabeled(s *dataset.Sample, class string) bool {
	return r.harvest(s, class, true)
}

// ObservePrediction offers one served prediction for self-labelled
// harvesting behind three gates: predictions labelled unknown or below
// MinConfidence are skipped — a sample the model cannot confidently
// name is exactly the sample self-training must not learn from; a
// calibrated verdict other than "class" is skipped — unknown is the
// open-set harvest filter and ambiguous means two classes compete for
// the label; and a best-class evidence below MinEvidence is skipped
// even with no calibration installed, because model confidence alone
// cannot distinguish "resembles class X" from "resembles nothing" (the
// closed-set poisoning fix). A self-label never overrides content the
// store already holds. The serving layers call this on their classify
// paths.
func (r *Retrainer) ObservePrediction(s *dataset.Sample, pred core.Prediction) bool {
	if pred.Label == unknownLabel || pred.Confidence < r.opt.MinConfidence {
		r.skipped.Add(1)
		return false
	}
	if pred.Verdict != "" && pred.Verdict != openset.VerdictClass {
		r.skipped.Add(1)
		return false
	}
	if r.opt.MinEvidence > 0 && pred.Evidence >= 0 && pred.Evidence < r.opt.MinEvidence {
		r.skipped.Add(1)
		return false
	}
	return r.harvest(s, pred.Label, false)
}

// harvest relabels, admits and counts one offered sample.
func (r *Retrainer) harvest(s *dataset.Sample, class string, authoritative bool) bool {
	cp := *s
	cp.Class = class
	cp.UnknownClass = false
	if !r.store.Add(cp, authoritative) {
		r.skipped.Add(1)
		return false
	}
	r.harvested.Add(1)
	if n := r.newSince.Add(1); r.opt.MinNewSamples > 0 && n >= int64(r.opt.MinNewSamples) {
		r.trigger("samples")
	}
	return true
}

// BackfillCollector classifies every binary the collector has already
// extracted through the serving engine and offers each prediction for
// harvesting — warming an empty store from a long-running collector the
// moment continuous learning is switched on. It returns the number of
// samples admitted.
func (r *Retrainer) BackfillCollector(c *collector.Collector) int {
	admitted := 0
	c.Range(func(s *dataset.Sample) {
		cp := *s
		pred := r.engine.Classify(&cp)
		if r.ObservePrediction(&cp, pred) {
			admitted++
		}
	})
	return admitted
}

// InstallIncumbent hot-swaps clf into the serving engine and records
// it as the promotion gate's new baseline, as one atomic step — the
// path manual swaps and rollbacks take, so a swap racing an automatic
// promotion can never leave the gate comparing against a model the
// engine no longer serves (the engine ends up serving whichever install
// ran last, and the gate's baseline is exactly that model).
func (r *Retrainer) InstallIncumbent(clf *core.Classifier) {
	if clf == nil {
		return
	}
	r.install(clf)
}

// install is the one path that changes what the engine serves: swap
// plus baseline update, made atomic against concurrent installs by
// installMu. Engine.Swap waits for every in-flight window on the old
// backend to deliver, so r.mu deliberately covers only the incumbent
// pointer write — holding it across the drain would stall Stats,
// SetIncumbent and the harvest path for the whole drain (the lockhold
// finding this layout fixes).
func (r *Retrainer) install(clf *core.Classifier) {
	r.installMu.Lock()
	defer r.installMu.Unlock()
	r.engine.Swap(clf)
	// The new model's calibration carries its own drift baseline;
	// resetting the detector here (inside installMu, right after the
	// swap) means traffic served by the new model is never tested
	// against the old model's expected distribution.
	r.opt.Drift.Rebaseline(clf.Calibration())
	r.mu.Lock()
	r.incumbent = clf
	r.mu.Unlock()
}

// SetIncumbent records that the engine now serves clf without swapping
// it — for callers that already installed the model through some other
// path. Prefer InstallIncumbent, which does both atomically.
func (r *Retrainer) SetIncumbent(clf *core.Classifier) {
	if clf == nil {
		return
	}
	r.mu.Lock()
	r.incumbent = clf
	r.mu.Unlock()
}

// Stats returns a snapshot of retrainer counters, the store population
// and the last cycle's result.
func (r *Retrainer) Stats() Stats {
	st := Stats{
		Runs:           r.runs.Load(),
		Promotions:     r.promotions.Load(),
		Rejections:     r.rejections.Load(),
		Failures:       r.failures.Load(),
		Harvested:      r.harvested.Load(),
		HarvestSkipped: r.skipped.Load(),
		NewSinceRun:    int(r.newSince.Load()),
		StoreSize:      r.store.Len(),
		StorePerClass:  r.store.PerClass(),
		StoreEvicted:   r.store.Evicted(),
	}
	r.mu.Lock()
	if r.last != nil {
		cp := *r.last
		st.Last = &cp
	}
	r.mu.Unlock()
	return st
}

// Close stops the background loop, waits for any in-flight cycle and
// persists the store. It is idempotent; the engine stays open — its
// owner closes it separately.
func (r *Retrainer) Close() error {
	var err error
	r.closeOnce.Do(func() {
		close(r.stop)
		r.loopWG.Wait()
		r.runMu.Lock() // drain a cycle a Kick started just before Close
		r.runMu.Unlock()
		err = r.store.Save()
	})
	return err
}

// RunNow executes one full retraining cycle synchronously — snapshot,
// frozen holdout split, candidate training, gate, and on success
// promotion and artifact persistence — and returns its result. Cycles
// are serialised: concurrent RunNow calls queue. trigger labels the
// result ("kick", "http", "bench", ...).
func (r *Retrainer) RunNow(trigger string) Result {
	r.runMu.Lock()
	defer r.runMu.Unlock()

	start := r.opt.Now()
	began := time.Now() // monotonic duration even under a pinned clock
	r.newSince.Store(0)
	runIndex := r.runs.Load()

	res := Result{Trigger: trigger, Start: start}
	finish := func(res Result, outcome *atomic.Uint64) Result {
		res.DurationSeconds = time.Since(began).Seconds()
		r.trainSeconds.Observe(res.DurationSeconds)
		if err := r.store.Save(); err != nil && res.Err == "" {
			// A store that cannot persist is an operational problem but
			// not a reason to discard this cycle's verdict.
			res.Err = err.Error()
		}
		outcome.Add(1)
		r.runs.Add(1)
		r.mu.Lock()
		cp := res
		r.last = &cp
		r.mu.Unlock()
		return res
	}
	fail := func(format string, args ...any) Result {
		res.Err = fmt.Sprintf(format, args...)
		res.Reason = "cycle failed before the gate"
		return finish(res, &r.failures)
	}

	snapshot := r.store.Snapshot()
	if len(snapshot) < r.opt.MinStoreSamples {
		return fail("insufficient data: store has %d samples, need %d", len(snapshot), r.opt.MinStoreSamples)
	}
	trainSet, holdout := splitHoldout(snapshot, r.opt.HoldoutFraction, r.opt.Train.Seed+runIndex)
	res.TrainSamples, res.HoldoutSamples = len(trainSet), len(holdout)
	if len(holdout) == 0 {
		return fail("insufficient data: no class has enough samples to freeze a holdout")
	}
	if classes := countClasses(trainSet); classes < 2 {
		return fail("insufficient data: training split has %d classes, need 2", classes)
	}

	r.mu.Lock()
	incumbent := r.incumbent
	r.mu.Unlock()

	candidate, err := r.opt.TrainFunc(trainSet, r.opt.Train)
	if err != nil {
		return fail("training candidate: %v", err)
	}
	res.Classes = candidate.Classes()

	// Tune the candidate's open-set calibration on the frozen holdout
	// before the gate scores it: the promoted artifact then carries
	// abstention thresholds (and the drift baseline) measured on data
	// the candidate never trained on, and the gate's comparison already
	// prices in any accuracy the abstention budget costs. A candidate
	// is always calibrated when the incumbent is — promotion must never
	// silently shed the policy.
	if (r.opt.Calibrate || incumbent.Calibration() != nil) && candidate.Calibration() == nil {
		if _, err := candidate.Calibrate(holdout, r.opt.CalibrateOptions); err != nil {
			return fail("calibrating candidate: %v", err)
		}
	}

	// Score both models on the same frozen holdout, concurrently — the
	// cycle runs off the serving hot path, so this parallelism competes
	// only with itself.
	yTrue := make([]string, len(holdout))
	for i := range holdout {
		yTrue[i] = holdout[i].Class
	}
	models := [2]*core.Classifier{candidate, incumbent}
	var reports [2]*ml.Report
	var evalErr [2]error
	par.Map(2, 2, func(i int) {
		preds := models[i].ClassifyBatch(holdout)
		yPred := make([]string, len(preds))
		for j := range preds {
			yPred[j] = preds[j].Label
		}
		reports[i], evalErr[i] = ml.ClassificationReport(yTrue, yPred)
	})
	for i := range evalErr {
		if evalErr[i] != nil {
			return fail("scoring holdout: %v", evalErr[i])
		}
	}
	// Both models are scored over the same rows — the holdout's true
	// classes — so neither is penalised for an extra report row the
	// other lacks (a model that demotes to unknown grows a "-1" row;
	// the miss already costs it recall on the true class).
	trueClasses := distinctLabels(yTrue)
	res.CandidateF1 = macroF1Over(reports[0], trueClasses)
	res.IncumbentF1 = macroF1Over(reports[1], trueClasses)
	res.PerClassDelta = make(map[string]float64, len(trueClasses))
	for _, class := range trueClasses {
		res.PerClassDelta[class] = reports[0].PerClass[class].F1 - reports[1].PerClass[class].F1
	}

	if res.CandidateF1 < res.IncumbentF1-r.opt.Margin {
		res.Reason = fmt.Sprintf(
			"rejected: candidate macro-F1 %.4f trails incumbent %.4f by more than margin %.4f",
			res.CandidateF1, res.IncumbentF1, r.opt.Margin)
		r.setHoldoutGauges(res)
		return finish(res, &r.rejections)
	}

	// Promote: zero-downtime swap and incumbent update as one atomic
	// step (the same install path manual InstallIncumbent takes), so the
	// gate's baseline always matches what the engine serves even when a
	// manual swap races the promotion.
	r.install(candidate)
	res.Promoted = true
	res.Reason = fmt.Sprintf("promoted: candidate macro-F1 %.4f vs incumbent %.4f (margin %.4f)",
		res.CandidateF1, res.IncumbentF1, r.opt.Margin)
	if r.opt.ArtifactDir != "" {
		artifact, err := r.persistArtifact(candidate, start)
		if err != nil {
			// The swap already happened and holds; a failed artifact
			// write only costs rollback depth.
			res.Err = err.Error()
		}
		res.Artifact = artifact
	}
	r.setHoldoutGauges(res)
	return finish(res, &r.promotions)
}

// setHoldoutGauges publishes the gate's scores for scraping.
func (r *Retrainer) setHoldoutGauges(res Result) {
	r.holdoutF1.With("candidate").Set(res.CandidateF1)
	r.holdoutF1.With("incumbent").Set(res.IncumbentF1)
}

// LatestPointerName is the pointer file the retrainer maintains beside
// its artifacts: it contains the file name of the newest promoted model.
const LatestPointerName = "latest"

// persistArtifact writes the promoted candidate as a timestamped
// artifact, updates the "latest" pointer file and prunes old artifacts
// beyond KeepArtifacts (which remain the rollback set for the
// model-swap endpoint).
func (r *Retrainer) persistArtifact(c *core.Classifier, now time.Time) (string, error) {
	if err := os.MkdirAll(r.opt.ArtifactDir, 0o755); err != nil {
		return "", fmt.Errorf("retrain: artifact dir: %w", err)
	}
	// Same-second promotions get a collision ordinal one past the
	// highest already used for this timestamp — never the first free
	// name, which after pruning could re-issue an ordinal older than a
	// surviving artifact and invert the age order pruning relies on.
	stamp := now.UTC().Format("20060102-150405")
	siblings, err := filepath.Glob(filepath.Join(r.opt.ArtifactDir, "model-"+stamp+"*.json"))
	if err != nil {
		return "", fmt.Errorf("retrain: artifact dir: %w", err)
	}
	maxOrdinal := 0
	for _, sib := range siblings {
		if sibStamp, n := artifactAge(sib); sibStamp == stamp && n > maxOrdinal {
			maxOrdinal = n
		}
	}
	name := fmt.Sprintf("model-%s.json", stamp)
	if maxOrdinal > 0 {
		name = fmt.Sprintf("model-%s-%d.json", stamp, maxOrdinal+1)
	}
	path := filepath.Join(r.opt.ArtifactDir, name)
	if err := core.SaveFile(path, c); err != nil {
		return "", err
	}
	// The pointer file is itself written atomically, so readers see
	// either the previous artifact name or this one, never a torn write.
	pointer := filepath.Join(r.opt.ArtifactDir, LatestPointerName)
	err = atomicWrite(pointer, func(w io.Writer) error {
		_, err := io.WriteString(w, name+"\n")
		return err
	})
	if err != nil {
		return path, fmt.Errorf("retrain: latest pointer: %w", err)
	}
	if err := r.pruneArtifacts(); err != nil {
		return path, err
	}
	return path, nil
}

// pruneArtifacts deletes the oldest artifacts beyond KeepArtifacts.
// Age is the (timestamp, collision-suffix) pair parsed from the name —
// not lexical order, where "model-S-2.json" would sort before (and be
// pruned as older than) the same second's earlier "model-S.json",
// deleting the very artifact the latest pointer names.
func (r *Retrainer) pruneArtifacts() error {
	entries, err := filepath.Glob(filepath.Join(r.opt.ArtifactDir, "model-*.json"))
	if err != nil {
		return fmt.Errorf("retrain: pruning artifacts: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool {
		si, ni := artifactAge(entries[i])
		sj, nj := artifactAge(entries[j])
		if si != sj {
			return si < sj
		}
		if ni != nj {
			return ni < nj
		}
		return entries[i] < entries[j]
	})
	for len(entries) > r.opt.KeepArtifacts {
		if err := os.Remove(entries[0]); err != nil {
			return fmt.Errorf("retrain: pruning artifacts: %w", err)
		}
		entries = entries[1:]
	}
	return nil
}

// artifactAge parses "model-STAMP[-N].json" into its timestamp string
// and collision ordinal (1 when unsuffixed, so the first artifact of a
// second is the oldest of that second).
func artifactAge(path string) (stamp string, n int) {
	base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "model-"), ".json")
	stamp, n = base, 1
	// STAMP is "YYYYMMDD-HHMMSS"; anything after a further dash is the
	// collision ordinal.
	if i := strings.LastIndexByte(base, '-'); i > len("20060102") {
		if v, err := strconv.Atoi(base[i+1:]); err == nil {
			stamp, n = base[:i], v
		}
	}
	return stamp, n
}

// splitHoldout freezes a per-class fraction of the snapshot as the
// promotion-gate holdout, deterministically from the seed: each class's
// members are shuffled by a class-labelled child stream and the first
// ceil(frac*n) (clamped to [1, n-1]) are held out. Classes with a
// single sample train only — they cannot give both sides a member.
func splitHoldout(samples []dataset.Sample, frac float64, seed uint64) (trainSet, holdout []dataset.Sample) {
	byClass := map[string][]int{}
	for i := range samples {
		byClass[samples[i].Class] = append(byClass[samples[i].Class], i)
	}
	classes := make([]string, 0, len(byClass))
	for class := range byClass {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	src := rng.New(seed).Child("retrain-holdout")
	for _, class := range classes {
		idx := byClass[class]
		if len(idx) < 2 {
			for _, i := range idx {
				trainSet = append(trainSet, samples[i])
			}
			continue
		}
		child := src.Child(class)
		child.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		nHold := int(math.Ceil(frac * float64(len(idx))))
		if nHold < 1 {
			nHold = 1
		}
		if nHold > len(idx)-1 {
			nHold = len(idx) - 1
		}
		for i, j := range idx {
			if i < nHold {
				holdout = append(holdout, samples[j])
			} else {
				trainSet = append(trainSet, samples[j])
			}
		}
	}
	return trainSet, holdout
}

// countClasses counts distinct class labels.
func countClasses(samples []dataset.Sample) int {
	set := map[string]bool{}
	for i := range samples {
		set[samples[i].Class] = true
	}
	return len(set)
}

// distinctLabels returns the distinct labels of ys, sorted.
func distinctLabels(ys []string) []string {
	set := map[string]bool{}
	for _, y := range ys {
		set[y] = true
	}
	out := make([]string, 0, len(set))
	for y := range set {
		out = append(out, y)
	}
	sort.Strings(out)
	return out
}

// macroF1Over averages a report's per-class F1 over exactly the given
// classes; a class the report has no row for scores 0.
func macroF1Over(r *ml.Report, classes []string) float64 {
	if len(classes) == 0 {
		return 0
	}
	sum := 0.0
	for _, class := range classes {
		sum += r.PerClass[class].F1
	}
	return sum / float64(len(classes))
}
