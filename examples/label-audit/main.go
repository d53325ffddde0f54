// Label audit: find labelling problems in a software corpus before they
// poison the classifier. The paper's dataset contained the same
// application installed under two different class labels (CellRanger vs
// Cell-Ranger, Augustus vs AUGUSTUS), which "skewed the results for both
// classes" (§5). This example reproduces the situation, then uses the
// ssdeep similarity index to surface cross-class near-duplicates — the
// audit that would have caught the problem before training.
package main

import (
	"fmt"
	"log"

	fhc "repro"
	"repro/ssdeep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("label-audit: ")

	// "cellranger" is one application installed under two class labels
	// with different version ranges — an accident of install-path
	// labelling, exactly as in the paper.
	specs := []fhc.ClassSpec{
		{Name: "Cell-Ranger", Genome: "cellranger", Samples: 8},
		{Name: "CellRanger", Genome: "cellranger", Samples: 8, VersionOffset: 9},
		{Name: "SeqTool", Samples: 8},
		{Name: "MeshKit", Samples: 8},
	}
	corpus, err := fhc.GenerateCorpus(specs, fhc.CorpusOptions{Seed: 13})
	if err != nil {
		log.Fatal(err)
	}
	samples, err := fhc.SamplesFromCorpus(corpus, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Index every sample's symbol digest and look for pairs of highly
	// similar executables under different labels. An entry's id is its
	// sample's position.
	digests := make([]ssdeep.Digest, len(samples))
	for i := range samples {
		digests[i] = samples[i].Digests[fhc.FeatureSymbols]
	}
	ix := ssdeep.NewIndex(digests, nil)

	type pairKey struct{ a, b string }
	crossPairs := map[pairKey]int{}
	for i := range samples {
		for _, m := range ix.Query(digests[i], 60) {
			j := m.ID
			if j <= i || samples[i].Class == samples[j].Class {
				continue
			}
			key := pairKey{samples[i].Class, samples[j].Class}
			if key.a > key.b {
				key.a, key.b = key.b, key.a
			}
			crossPairs[key]++
		}
	}

	fmt.Println("cross-class near-duplicate audit (symbol feature, score >= 60):")
	if len(crossPairs) == 0 {
		fmt.Println("  none found")
	}
	for key, n := range crossPairs {
		fmt.Printf("  %-14s <-> %-14s %3d similar pairs  -> likely the same application\n",
			key.a, key.b, n)
	}

	// Show the damage: train with the split labels and inspect the two
	// classes' metrics.
	split, err := fhc.SplitTwoPhase(samples, fhc.SplitOptions{
		Mode: fhc.RandomSplit, UnknownClassFraction: 0.25, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	var train, test []fhc.Sample
	for _, i := range split.TrainIdx {
		train = append(train, samples[i])
	}
	for _, i := range split.TestIdx {
		test = append(test, samples[i])
	}
	clf, err := fhc.Train(train, fhc.Config{Threshold: 0.4, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	report, err := clf.Evaluate(test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-class metrics with the split labels left in place:")
	for _, label := range report.Labels {
		m := report.PerClass[label]
		fmt.Printf("  %-14s precision %.2f  recall %.2f  f1 %.2f  support %d\n",
			label, m.Precision, m.Recall, m.F1, m.Support)
	}
	fmt.Println(`
The audit flags Cell-Ranger/CellRanger as one application split across two
labels. Merging them (or fixing the install-path labelling) removes the
cross-contamination the paper describes in its Discussion section.`)
}
