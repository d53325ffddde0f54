package main

// The dups subcommand audits an install tree for cross-class
// near-duplicates: pairs of executables in different classes whose
// symbol-feature digests are highly similar. These are usually labelling
// problems — the paper's CellRanger vs Cell-Ranger case, where one
// application installed under two paths silently splits a class — and
// finding them before training directly improves the classifier.

import (
	"errors"
	"flag"
	"fmt"

	"repro/internal/dataset"
	"repro/ssdeep"
)

func init() {
	extraCommands = append(extraCommands, command{
		"dups", "find cross-class near-duplicate executables in an install tree", cmdDups,
	})
}

func cmdDups(args []string) error {
	fs := flag.NewFlagSet("dups", flag.ExitOnError)
	minScore := fs.Int("min", 70, "minimum similarity score to report")
	feature := fs.String("feature", "symbols", "feature to compare: file, strings, symbols or needed")
	withinClass := fs.Bool("within", false, "also report near-duplicates inside one class")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("need exactly one directory")
	}
	kind, err := parseFeature(*feature)
	if err != nil {
		return err
	}
	samples, err := dataset.Scan(fs.Arg(0), 0)
	if err != nil {
		return err
	}

	// Index the samples carrying this feature; an entry's id is its
	// position in owner.
	var digests []ssdeep.Digest
	var owner []int
	for i := range samples {
		if d := samples[i].Digests[kind]; !d.IsZero() {
			digests = append(digests, d)
			owner = append(owner, i)
		}
	}
	ix := ssdeep.NewIndex(digests, nil)

	reported := 0
	for id, si := range owner {
		for _, m := range ix.Query(digests[id], *minScore) {
			sj := owner[m.ID]
			if sj <= si {
				continue // report each pair once
			}
			sameClass := samples[si].Class == samples[sj].Class
			if sameClass && !*withinClass {
				continue
			}
			tag := "CROSS-CLASS"
			if sameClass {
				tag = "within-class"
			}
			fmt.Printf("%3d  %-12s %s  <->  %s\n", m.Score, tag, samples[si].Path(), samples[sj].Path())
			reported++
		}
	}
	fmt.Printf("%d near-duplicate pairs at score >= %d over %d samples (feature %s)\n",
		reported, *minScore, len(samples), kind)
	return nil
}

func parseFeature(name string) (dataset.FeatureKind, error) {
	switch name {
	case "file":
		return dataset.FeatureFile, nil
	case "strings":
		return dataset.FeatureStrings, nil
	case "symbols":
		return dataset.FeatureSymbols, nil
	case "needed":
		return dataset.FeatureNeeded, nil
	default:
		return 0, fmt.Errorf("unknown feature %q", name)
	}
}
