package main

// Pipeline subcommands: corpus, scan, train, classify, report — the
// paper's Figure 1 workflow from data collection to job labelling.

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/openset"
	"repro/internal/rf"
	"repro/internal/synth"
)

// cmdCorpus generates a synthetic install tree.
func cmdCorpus(args []string) error {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	out := fs.String("out", "", "output directory (required)")
	scaleName := fs.String("scale", "small", "corpus scale: small, medium or paper")
	seed := fs.Uint64("seed", experiments.DefaultSeed, "generation seed")
	stripped := fs.Float64("stripped", 0, "fraction of samples emitted without a symbol table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("-out is required")
	}
	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	specs := scale.Manifest()
	corpus, err := synth.Generate(specs, synth.Options{Seed: *seed, StrippedFraction: *stripped})
	if err != nil {
		return err
	}
	if err := corpus.WriteTree(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %d samples across %d classes to %s\n", len(corpus.Samples), len(specs), *out)
	return nil
}

// cmdScan extracts features from an install tree and prints one line per
// sample, or writes a JSON-lines feature file for later training.
func cmdScan(args []string) error {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	workers := fs.Int("workers", 0, "extraction workers (0 = GOMAXPROCS)")
	jsonOut := fs.String("json", "", "write samples as JSON lines to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("need exactly one directory")
	}
	samples, err := dataset.Scan(fs.Arg(0), *workers)
	if err != nil {
		return err
	}
	if *jsonOut != "" {
		if err := core.WriteFileAtomic(*jsonOut, func(w io.Writer) error {
			return dataset.SaveSamples(w, samples)
		}); err != nil {
			return err
		}
	} else {
		for i := range samples {
			s := &samples[i]
			fmt.Printf("%s\t%s\t%s\t%s\n", s.Class, s.Path(),
				s.Digests[dataset.FeatureSymbols], s.Digests[dataset.FeatureFile])
		}
	}
	stats := dataset.ComputeStats(samples)
	fmt.Fprintf(os.Stderr, "scanned %d samples in %d classes (%d stripped)\n",
		stats.Samples, stats.Classes, stats.Stripped)
	return nil
}

// cmdTrain fits a classifier on a labelled install tree and stores the
// model.
func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	corpusDir := fs.String("corpus", "", "labelled install tree")
	samplesPath := fs.String("samples", "", "JSON-lines feature file from 'fhc scan -json' (alternative to -corpus)")
	modelPath := fs.String("model", "", "output model file (required)")
	kind := fs.String("kind", model.KindRF,
		"model kind: "+strings.Join(model.Kinds(), ", "))
	threshold := fs.Float64("threshold", 0, "confidence threshold (0 = tune on an inner split)")
	seed := fs.Uint64("seed", experiments.DefaultSeed, "training seed")
	trees := fs.Int("trees", 200, "Random Forest size (rf kind only)")
	grid := fs.Bool("grid", false, "run the full hyper-parameter grid search (rf kind only)")
	calFrac := fs.Float64("calibrate", 0,
		"freeze this per-class fraction of the corpus as a holdout and tune open-set abstention thresholds on it; the calibration is persisted inside the model artifact (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*corpusDir == "") == (*samplesPath == "") || *modelPath == "" {
		return errors.New("need -model and exactly one of -corpus or -samples")
	}
	var samples []dataset.Sample
	var err error
	if *corpusDir != "" {
		samples, err = dataset.Scan(*corpusDir, 0)
	} else {
		var f *os.File
		f, err = os.Open(*samplesPath)
		if err == nil {
			samples, err = dataset.LoadSamples(f)
			f.Close()
		}
	}
	if err != nil {
		return err
	}
	samples = dataset.ApplyPaperCollectionRules(samples, 3)
	if len(samples) == 0 {
		return errors.New("no usable samples (need unstripped ELF executables in >= 3 versions per class)")
	}
	var calHold []dataset.Sample
	if *calFrac != 0 {
		if *calFrac < 0 || *calFrac >= 0.5 {
			return errors.New("-calibrate must be in (0, 0.5): the model still has to train on most of each class")
		}
		samples, calHold = calibrationSplit(samples, *calFrac)
		if len(calHold) == 0 {
			return errors.New("-calibrate froze no samples: every class is too small to give up a member")
		}
	}
	cfg := core.Config{
		Model:     *kind,
		Forest:    rf.Params{NumTrees: *trees},
		Threshold: *threshold,
		Seed:      *seed,
	}
	if *grid {
		cfg.Grid = core.DefaultGrid()
	}
	clf, err := core.Train(samples, cfg)
	if err != nil {
		return err
	}
	if len(calHold) > 0 {
		// Thresholds tuned on samples the model never trained on; the
		// calibration is saved inside the artifact below, so swaps and
		// rollouts carry model and thresholds as one unit.
		if _, err := clf.Calibrate(calHold, openset.CalibrateOptions{}); err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
	}
	if err := core.SaveFile(*modelPath, clf); err != nil {
		return err
	}
	calNote := ""
	if len(calHold) > 0 {
		calNote = fmt.Sprintf("; calibrated for open-set abstention on %d held-out samples", len(calHold))
	}
	fmt.Printf("trained %s on %d samples, %d classes; threshold %.2f%s; model written to %s\n",
		clf.ModelKind(), len(samples), len(clf.Classes()), clf.Threshold(), calNote, *modelPath)
	return nil
}

// calibrationSplit freezes a per-class fraction of the corpus for
// abstention-threshold tuning: every k-th member of each class
// (k = round(1/frac)) is held out in corpus order, so the thresholds
// are tuned on samples the model never trained on, deterministically
// and independently of the training seed. Classes too small to reach a
// k-th member train whole; Calibrate falls back to global floors for
// any class the holdout under-represents.
func calibrationSplit(samples []dataset.Sample, frac float64) (trainSet, holdout []dataset.Sample) {
	k := int(1/frac + 0.5)
	if k < 2 {
		k = 2
	}
	seen := map[string]int{}
	for i := range samples {
		n := seen[samples[i].Class]
		seen[samples[i].Class] = n + 1
		if n%k == k-1 {
			holdout = append(holdout, samples[i])
		} else {
			trainSet = append(trainSet, samples[i])
		}
	}
	return trainSet, holdout
}

// cmdClassify labels executables with a trained model.
func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	modelPath := fs.String("model", "", "model file (required)")
	threshold := fs.Float64("threshold", -1, "override the confidence threshold (-1 keeps the model's)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return errors.New("-model is required")
	}
	if fs.NArg() == 0 {
		return errors.New("no binaries given")
	}
	clf, err := core.LoadFile(*modelPath)
	if err != nil {
		return err
	}
	if *threshold >= 0 {
		clf.SetThreshold(*threshold)
	}
	for _, path := range fs.Args() {
		bin, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		s, err := dataset.FromBinary("", "", path, bin)
		if err != nil {
			return err
		}
		pred := clf.Classify(&s)
		if pred.Label == core.UnknownLabel {
			fmt.Printf("%s\t%s\t(closest: %s, confidence %.2f)\n",
				path, pred.Label, pred.Class, pred.Confidence)
		} else {
			fmt.Printf("%s\t%s\t(confidence %.2f)\n", path, pred.Label, pred.Confidence)
		}
	}
	return nil
}

// cmdReport evaluates a model against a labelled install tree.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	corpusDir := fs.String("corpus", "", "labelled install tree (required)")
	modelPath := fs.String("model", "", "model file (required)")
	format := fs.String("format", "text", "output format: text, csv or md")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *corpusDir == "" || *modelPath == "" {
		return errors.New("-corpus and -model are required")
	}
	samples, err := dataset.Scan(*corpusDir, 0)
	if err != nil {
		return err
	}
	clf, err := core.LoadFile(*modelPath)
	if err != nil {
		return err
	}
	report, err := clf.Evaluate(samples)
	if err != nil {
		return err
	}
	switch *format {
	case "text", "":
		fmt.Print(report.Format())
	case "csv":
		fmt.Print(report.CSV())
	case "md":
		fmt.Print(report.Markdown())
	default:
		return fmt.Errorf("unknown format %q (want text, csv or md)", *format)
	}
	return nil
}
