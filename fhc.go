// Package fhc is the public API of the Fuzzy Hash Classifier, a
// reproduction of "Using Malware Detection Techniques for HPC Application
// Classification" (Jakobsche & Ciorba, SC 2024).
//
// The classifier labels HPC application executables by application class
// using similarity-preserving fuzzy hashes (package repro/ssdeep) of three
// views of each binary — the raw file bytes, its strings(1) output and its
// nm(1) global symbols — fed into a Random Forest with balanced class
// weights. Samples whose prediction confidence falls below a tuned
// threshold are labelled "-1" (unknown), the signal for software deviating
// from allocation purpose.
//
// # Quick start
//
//	samples, _ := fhc.ScanTree("/apps", 0)            // label by install path
//	clf, _ := fhc.Train(samples, fhc.Config{Seed: 1}) // tune + fit
//	pred := clf.Classify(&incoming)                   // label a new binary
//	if pred.Label == fhc.UnknownLabel { ... }         // flag for review
//
// The facade carries only what README.md, OPERATIONS.md, ARCHITECTURE.md
// and the runnable programs under examples/ use (TestFacadeNamesDocumented
// holds it there); cmd/fhc exposes the whole workflow as a command-line
// tool. Everything is pure Go on the
// standard library; no cgo, no network, no external binaries.
package fhc

import (
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/httpserve"
	"repro/internal/knn"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/openset"
	"repro/internal/retrain"
	"repro/internal/serve"
	"repro/internal/synth"
)

// Re-exported core types. The type aliases keep one canonical definition
// while giving users a single import.
type (
	// Sample is a labelled executable reduced to its fuzzy-hash features.
	Sample = dataset.Sample
	// Classifier is a trained Fuzzy Hash Classifier.
	Classifier = core.Classifier
	// Config configures training.
	Config = core.Config
	// Prediction is the classifier's answer for one sample.
	Prediction = core.Prediction
	// KNNParams are the K-nearest-neighbour hyper-parameters.
	KNNParams = knn.Params
	// Split is a two-phase train/test split.
	Split = ml.Split
	// SplitOptions configures SplitTwoPhase.
	SplitOptions = ml.SplitOptions
	// ClassSpec declares one synthetic application class.
	ClassSpec = synth.ClassSpec
	// CorpusOptions configures synthetic corpus generation.
	CorpusOptions = synth.Options
	// Corpus is a generated set of synthetic application executables.
	Corpus = synth.Corpus
	// Monitor labels job submissions and applies allocation policy — the
	// decision-support layer of the paper's Figure 1 workflow.
	Monitor = monitor.Monitor
	// MonitorPolicy declares allocation purposes and blocklisted classes.
	MonitorPolicy = monitor.Policy
	// MonitorLabeler is the labelling surface a Monitor drives;
	// *Classifier and *Engine both satisfy it.
	MonitorLabeler = monitor.Labeler
	// JobEvent is one observed job submission.
	JobEvent = monitor.Event
	// Collector deduplicates and extracts job executables (the paper's
	// Slurm-prolog collection mechanism).
	Collector = collector.Collector
	// CollectorOptions configures a Collector.
	CollectorOptions = collector.Options
	// Engine is the serving front for a classifier: an exact-hash
	// prediction cache with in-flight coalescing. Predictions are
	// bit-identical to Classifier.Classify.
	Engine = serve.Engine
	// EngineOptions configures an Engine's prediction cache.
	EngineOptions = serve.Options
	// HTTPServer is the network front end over an Engine: the versioned
	// classify/swap JSON API plus health and Prometheus metrics
	// endpoints (see internal/httpserve).
	HTTPServer = httpserve.Server
	// HTTPServerOptions configures an HTTPServer: body limits,
	// concurrency backpressure, path-request policy, model directory.
	HTTPServerOptions = httpserve.Options
	// HTTPClassifyRequest is the wire request of POST /v1/classify and
	// each element of a batch request.
	HTTPClassifyRequest = httpserve.ClassifyRequest
	// HTTPClassifyResponse is one prediction on the wire.
	HTTPClassifyResponse = httpserve.ClassifyResponse
	// HTTPBatchRequest is the wire request of POST /v1/classify/batch.
	HTTPBatchRequest = httpserve.BatchRequest
	// HTTPBatchResponse holds batch results in request order.
	HTTPBatchResponse = httpserve.BatchResponse
	// HTTPSwapRequest names a model artifact for POST /v1/model/swap.
	HTTPSwapRequest = httpserve.SwapRequest
	// HTTPSwapResponse acknowledges an installed hot-swap.
	HTTPSwapResponse = httpserve.SwapResponse
	// Retrainer is the continuous-learning subsystem: it harvests
	// labelled windows into a bounded class-balanced training store,
	// retrains in the background on a trigger policy, and promotes
	// candidates that pass the holdout gate through Engine.Swap with
	// zero downtime (see internal/retrain and OPERATIONS.md).
	Retrainer = retrain.Retrainer
	// RetrainOptions configures a Retrainer: store bounds and
	// persistence, trigger policy, harvest confidence gate, holdout
	// fraction, promotion margin, artifact retention and the candidate
	// training configuration.
	RetrainOptions = retrain.Options
	// RetrainStoreOptions bounds and persists the labelled training
	// store (RetrainOptions.Store).
	RetrainStoreOptions = retrain.StoreOptions
	// CalibrateOptions tunes Classifier.Calibrate's abstention budget.
	CalibrateOptions = openset.CalibrateOptions
	// DriftDetector watches served verdicts for population drift
	// against a calibration baseline and latches an alarm — wire one
	// into HTTPServerOptions.Drift and RetrainOptions.Drift so drifting
	// traffic kicks a retraining cycle.
	DriftDetector = openset.Detector
	// DriftOptions configures a DriftDetector.
	DriftOptions = openset.DriftOptions
	// DriftBaseline is the expected verdict population a calibration
	// records for its drift detector.
	DriftBaseline = openset.Baseline
)

// UnknownLabel is the class label of samples that resemble no known
// application class (the paper's "-1").
const UnknownLabel = core.UnknownLabel

// Calibrated open-set verdicts, as carried by Prediction.Verdict.
const (
	// VerdictClass: the prediction names a class with calibrated
	// confidence, margin and distance evidence.
	VerdictClass = openset.VerdictClass
	// VerdictUnknown: the sample resembles no known class well enough;
	// the label is demoted to UnknownLabel.
	VerdictUnknown = openset.VerdictUnknown
	// VerdictAmbiguous: two classes compete for the label; the raw
	// label stands but self-training must not harvest it.
	VerdictAmbiguous = openset.VerdictAmbiguous
)

// Feature kinds, in the order the paper introduces them.
const (
	FeatureFile    = dataset.FeatureFile
	FeatureStrings = dataset.FeatureStrings
	FeatureSymbols = dataset.FeatureSymbols
)

// Comparison model kinds selectable via Config.Model; the zero value
// selects the paper's Random Forest.
const (
	// ModelKNN is the K-nearest-neighbour comparison model.
	ModelKNN = model.KindKNN
	// ModelSVM is the linear one-vs-rest SVM comparison model.
	ModelSVM = model.KindSVM
)

// Split modes for SplitTwoPhase.
const (
	// PaperSplit assigns unknown classes from the samples' markers.
	PaperSplit = ml.PaperSplit
	// RandomSplit draws unknown classes randomly (the paper's 80/20).
	RandomSplit = ml.RandomSplit
)

// NewMonitor builds a job monitor over a labeler and a policy. Pass the
// trained classifier directly, or — for an always-on deployment — an
// Engine wrapping it, so every Observe call inherits prediction caching
// and in-flight coalescing.
func NewMonitor(labeler MonitorLabeler, policy MonitorPolicy) *Monitor {
	return monitor.New(labeler, policy)
}

// NewCollector builds an executable collector with an exact-hash
// deduplication cache: repeated executions of the same binary (the common
// case, per the paper) skip feature extraction.
func NewCollector(opt CollectorOptions) *Collector {
	return collector.New(opt)
}

// NewEngine builds a serving engine over a trained classifier. The
// engine fronts the classifier with an exact-hash prediction cache and
// coalesces concurrent submissions of one binary, so duplicate
// submissions — the common case in the paper's always-on deployment —
// skip featurisation entirely. Hand the engine to
// NewMonitor as the labeler of a production Figure-1 workflow, and
// Close it when done. The zero EngineOptions selects serving defaults.
//
// Retrained models deploy without a restart: Engine.Swap installs a new
// classifier with zero downtime and orphans every prediction cached
// under the previous model (see examples/model-swap).
func NewEngine(clf *Classifier, opt EngineOptions) *Engine {
	return serve.New(clf, opt)
}

// NewHTTPServer puts an engine on the network: a versioned JSON API
// (POST /v1/classify, /v1/classify/batch, /v1/model/swap) with health
// probes and a Prometheus /metrics endpoint wired into the engine's
// cache, batch and swap counters. The zero HTTPServerOptions selects
// production defaults: 64 MiB body limit, 8x GOMAXPROCS concurrent
// requests (excess answered 429), server-local path requests disabled.
// Run with Serve, drain with Shutdown; the caller keeps ownership of
// the engine (see examples/http-serving).
func NewHTTPServer(engine *Engine, opt HTTPServerOptions) *HTTPServer {
	return httpserve.New(engine, opt)
}

// NewDriftDetector builds a population-drift detector over a
// calibration baseline (Calibration.Baseline from a calibrated
// classifier). Feed it every served verdict — HTTPServerOptions.Drift
// does this on all classify legs — and it latches an alarm when the
// served confidence distribution or unknown-verdict rate departs from
// the baseline. Share the same detector with RetrainOptions.Drift so a
// promoted model re-baselines it atomically with the swap.
func NewDriftDetector(base DriftBaseline, opt DriftOptions) *DriftDetector {
	return openset.NewDetector(base, opt)
}

// NewRetrainer starts the continuous-learning loop over a serving
// engine and the classifier it currently serves: labelled windows are
// harvested into a bounded class-balanced store (confident predictions
// via Retrainer.ObservePrediction, operator ground truth via
// Retrainer.HarvestLabeled), background cycles retrain on the
// configured trigger policy, and a candidate that meets-or-beats the
// incumbent's holdout macro-F1 within the margin is promoted through
// Engine.Swap with zero downtime — a rejected candidate leaves the
// incumbent serving bit-identically. Wire the same Retrainer into
// HTTPServerOptions.Retrainer to expose POST /v1/retrain and GET
// /v1/retrain/status, and Close it when done (the store persists on
// Close). See examples/continuous-learning and OPERATIONS.md.
func NewRetrainer(engine *Engine, incumbent *Classifier, opt RetrainOptions) (*Retrainer, error) {
	return retrain.New(engine, incumbent, opt)
}

// Train fits a Fuzzy Hash Classifier on labelled training samples. With a
// zero Config.Threshold the confidence threshold is tuned on an inner
// split of the training set, as the paper does.
func Train(samples []Sample, cfg Config) (*Classifier, error) {
	return core.Train(samples, cfg)
}

// LoadFile reads a classifier previously stored with Classifier.Save.
func LoadFile(path string) (*Classifier, error) {
	return core.LoadFile(path)
}

// ScanTree loads labelled samples from an install tree laid out as
// root/Class/Version/executable, the structure the paper scrapes.
// workers <= 0 selects GOMAXPROCS.
func ScanTree(root string, workers int) ([]Sample, error) {
	return dataset.Scan(root, workers)
}

// SplitTwoPhase performs the paper's evaluation split: classes 80/20 into
// known/unknown, then a stratified 60/40 sample split within known
// classes.
func SplitTwoPhase(samples []Sample, opt SplitOptions) (Split, error) {
	return ml.SplitTwoPhase(samples, opt)
}

// GenerateCorpus builds a synthetic corpus of ELF application executables
// following the given class manifest. It substitutes for the paper's
// private cluster dataset (see internal/synth).
func GenerateCorpus(specs []ClassSpec, opt CorpusOptions) (*Corpus, error) {
	return synth.Generate(specs, opt)
}

// SamplesFromCorpus extracts features from a generated corpus in parallel.
func SamplesFromCorpus(c *Corpus, workers int) ([]Sample, error) {
	return dataset.FromCorpus(c, workers)
}
