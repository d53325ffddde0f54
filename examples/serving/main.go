// Serving: the classification engine under a bursty duplicate-heavy job
// stream — the load shape of the paper's always-on Figure 1 deployment,
// where "users frequently execute jobs by changing the input data and
// not the application executable" (§1).
//
// A site model is trained once, then fronted by fhc.NewEngine: an
// exact-hash prediction cache with in-flight coalescing. A simulated
// flood of submissions — few distinct binaries, many repetitions,
// arriving concurrently — shows duplicates served without
// featurisation, each distinct binary featurised once. A differential
// pass proves the engine's predictions are identical to calling
// Classify directly.
package main

import (
	"fmt"
	"log"
	"sync"

	fhc "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serving: ")

	// --- Train the site model once -------------------------------------
	specs := []fhc.ClassSpec{
		{Name: "GROMACS-like", Samples: 12},
		{Name: "OpenFOAM-like", Samples: 12},
		{Name: "BLAST-like", Samples: 12},
		{Name: "LAMMPS-like", Samples: 12},
	}
	corpus, err := fhc.GenerateCorpus(specs, fhc.CorpusOptions{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	installed, err := fhc.SamplesFromCorpus(corpus, 0)
	if err != nil {
		log.Fatal(err)
	}
	clf, err := fhc.Train(installed, fhc.Config{Threshold: 0.5, Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %d training executables, %d classes\n",
		len(installed), len(clf.Classes()))

	// --- The submission flood ------------------------------------------
	// 16 distinct binaries submitted 256 times in total: the repeated
	// submissions every HPC site sees. Collection (exact-hash dedup of
	// extraction) and classification (exact-hash dedup of prediction)
	// share the SHA-256 the collector computes.
	coll := fhc.NewCollector(fhc.CollectorOptions{})
	engine := fhc.NewEngine(clf, fhc.EngineOptions{})
	defer engine.Close()

	distinct := make([][]byte, 0, 16)
	for i := range corpus.Samples {
		if len(distinct) < cap(distinct) {
			distinct = append(distinct, corpus.Samples[i].Binary)
		}
	}
	const submissions = 256
	var wg sync.WaitGroup
	preds := make([]fhc.Prediction, submissions)
	for i := 0; i < submissions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bin := distinct[i%len(distinct)]
			sample, _, err := coll.Collect(fmt.Sprintf("job-%d", i), bin)
			if err != nil {
				log.Fatal(err)
			}
			preds[i] = engine.Classify(&sample)
		}(i)
	}
	wg.Wait()

	es, cs := engine.Stats(), coll.Stats()
	fmt.Printf("\nflood: %d submissions of %d distinct binaries\n", submissions, len(distinct))
	fmt.Printf("collector: %d seen, %d unique extractions, %d exact-hash hits\n",
		cs.Seen, cs.Unique, cs.CacheHits)
	fmt.Printf("engine:    %d featurised (misses), %d served without featurisation (%d cache hits + %d coalesced)\n",
		es.Misses, es.Hits+es.Coalesced, es.Hits, es.Coalesced)

	// --- The differential guarantee ------------------------------------
	// Caching and coalescing change scheduling, never arithmetic: engine
	// predictions must equal the direct per-sample path bit for bit.
	mismatches := 0
	for i := 0; i < submissions; i++ {
		sample, _, err := coll.Collect("check", distinct[i%len(distinct)])
		if err != nil {
			log.Fatal(err)
		}
		if direct := clf.Classify(&sample); direct != preds[i] {
			mismatches++
		}
	}
	fmt.Printf("\ndifferential check: %d mismatches against direct Classify across %d submissions\n",
		mismatches, submissions)
	if mismatches > 0 {
		log.Fatal("engine diverged from the classifier")
	}
}
