// Command fhc is the Fuzzy Hash Classifier command-line tool: it
// generates synthetic corpora, computes and compares fuzzy hashes, trains
// classifiers on install trees and labels executables — the workflow of
// the reproduced paper's Figure 1.
//
// Usage:
//
//	fhc corpus   -out DIR [-scale small|medium|paper] [-seed N] [-stripped F]
//	fhc hash     FILE...
//	fhc compare  [-distance NAME] FILE_A FILE_B
//	fhc strings  FILE
//	fhc nm       FILE
//	fhc ldd      FILE
//	fhc scan     [-json FILE] DIR
//	fhc train    (-corpus DIR | -samples FILE) -model FILE [-kind rf|knn|svm] [-threshold T] [-seed N] [-grid]
//	fhc classify -model FILE BINARY...
//	fhc report   -corpus DIR -model FILE [-format text|csv|md]
//	fhc dups     [-min SCORE] [-feature NAME] [-within] DIR
//	fhc serve    -model FILE [-policy FILE] [-input FILE|none] [-http ADDR] [-cache N] [-stats] [-retrain ...]
//	fhc route    -worker NAME=URL ... [-listen ADDR] [-hedge-after D] [-incumbent FILE] [-watch DIR]
//
// route fronts a fleet of serve -http workers with the consistent-hash
// router (internal/cluster): every binary's featurisation and cache
// affinity lands on one shard, slow shards are hedged, dead shards are
// ejected and retried around, and -incumbent/-watch drive staged model
// rollouts (canary, gate, expand, rollback) across the whole fleet.
//
// serve accepts {"reload":"FILE"} control lines that hot-swap a
// retrained model into the running engine with zero downtime, and with
// -http ADDR additionally exposes the engine over HTTP: classify,
// batch-classify, model-swap, retrain, health and Prometheus metrics
// endpoints (see internal/httpserve). With -retrain the service learns
// continuously: confident predictions are harvested into a bounded
// training store, background cycles retrain on the -retrain-every /
// -retrain-interval trigger policy, and candidates that pass the
// holdout gate are hot-swapped in automatically (see internal/retrain
// and OPERATIONS.md).
package main

import (
	"fmt"
	"os"
)

// command describes one subcommand.
type command struct {
	name, synopsis string
	run            func(args []string) error
}

// extraCommands collects subcommands registered from other files.
var extraCommands []command

func commands() []command {
	return append([]command{
		{"corpus", "generate a synthetic application corpus tree", cmdCorpus},
		{"hash", "print the fuzzy digests of executables", cmdHash},
		{"compare", "compare the fuzzy digests of two executables", cmdCompare},
		{"strings", "print the strings(1) view of an executable", cmdStrings},
		{"nm", "print the nm(1) global-symbol view of an executable", cmdNM},
		{"ldd", "print the DT_NEEDED libraries of an executable", cmdLDD},
		{"scan", "extract features from an install tree", cmdScan},
		{"train", "train a classifier on a labelled install tree", cmdTrain},
		{"classify", "label executables with a trained model", cmdClassify},
		{"report", "evaluate a model against a labelled install tree", cmdReport},
	}, extraCommands...)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	for _, c := range commands() {
		if c.name == name {
			if err := c.run(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "fhc %s: %v\n", name, err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "fhc: unknown command %q\n\n", name)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "fhc — Fuzzy Hash Classifier for HPC application executables")
	fmt.Fprintln(os.Stderr, "\nCommands:")
	for _, c := range commands() {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.name, c.synopsis)
	}
	fmt.Fprintln(os.Stderr, "\nRun 'fhc COMMAND -h' for command flags.")
}
