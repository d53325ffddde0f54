// Model swap: zero-downtime redeployment of a retrained classifier.
//
// The Execution Fingerprint Dictionary line of work stresses that HPC
// fingerprint models must be re-built as new applications and versions
// appear; in the paper's always-on Figure 1 deployment that means
// retraining while the service keeps answering a Slurm prolog. This
// example runs that scenario end to end:
//
//  1. a site model is trained on three application classes and serves a
//     concurrent submission flood through fhc.NewEngine;
//  2. a fourth application starts appearing and is (correctly) labelled
//     "-1" unknown — and that prediction is cached by exact hash;
//  3. the model is retrained with the fourth class and hot-swapped into
//     the running engine with Engine.Swap — no restart, no dropped
//     request;
//  4. the very same binaries are submitted again: the engine must not
//     serve the cached pre-swap "-1" predictions — the swap epochs the
//     cache wholesale — and now labels the new class correctly, while a
//     differential pass proves post-swap engine output is bit-identical
//     to the retrained classifier.
package main

import (
	"fmt"
	"log"
	"sync"

	fhc "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("model-swap: ")

	// --- Generation 1: three known classes ------------------------------
	base := []fhc.ClassSpec{
		{Name: "GROMACS-like", Samples: 12},
		{Name: "OpenFOAM-like", Samples: 12},
		{Name: "BLAST-like", Samples: 12},
	}
	newcomer := fhc.ClassSpec{Name: "Miner-like", Samples: 10}

	corpus, err := fhc.GenerateCorpus(append(base, newcomer), fhc.CorpusOptions{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	samples, err := fhc.SamplesFromCorpus(corpus, 0)
	if err != nil {
		log.Fatal(err)
	}
	var known, incoming []fhc.Sample
	for i := range samples {
		if samples[i].Class == newcomer.Name {
			incoming = append(incoming, samples[i])
		} else {
			known = append(known, samples[i])
		}
	}

	// A high threshold captures more unknown samples (the paper's §5
	// trade-off) — exactly the conservative posture a site runs while a
	// new application is not yet in the model.
	clfV1, err := fhc.Train(known, fhc.Config{Threshold: 0.85, Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generation 1: %d classes (%v)\n", len(clfV1.Classes()), clfV1.Classes())

	engine := fhc.NewEngine(clfV1, fhc.EngineOptions{})
	defer engine.Close()

	// --- The fourth application appears ---------------------------------
	// Its submissions are classified concurrently (and cached): the old
	// model deflects them to "-1" unknown.
	unknownBefore := classifyFlood(engine, incoming)
	fmt.Printf("before swap: %d/%d submissions of the new application labelled %q\n",
		unknownBefore, len(incoming), fhc.UnknownLabel)

	// --- Retrain and hot-swap -------------------------------------------
	// Retraining happens beside the serving engine; Swap installs the new
	// model atomically. A concurrent flood of old-class submissions rides
	// across the swap to show nothing is dropped mid-flight.
	clfV2, err := fhc.Train(samples, fhc.Config{Threshold: 0.5, Seed: 17})
	if err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		classifyFlood(engine, known) // load crossing the swap
	}()
	engine.Swap(clfV2)
	wg.Wait()
	fmt.Printf("swapped in generation 2: %d classes (%v)\n", len(clfV2.Classes()), clfV2.Classes())

	// --- The same binaries again ----------------------------------------
	// Identical content, identical cache keys — but the swap epoched the
	// prediction cache, so nothing is served from the old model.
	correctAfter := 0
	for i := range incoming {
		if engine.Classify(&incoming[i]).Label == newcomer.Name {
			correctAfter++
		}
	}
	fmt.Printf("after swap:  %d/%d submissions of the new application labelled %q\n",
		correctAfter, len(incoming), newcomer.Name)
	if correctAfter == 0 {
		log.Fatal("swap did not take effect")
	}

	// --- The differential guarantee -------------------------------------
	mismatches := 0
	for i := range samples {
		if engine.Classify(&samples[i]) != clfV2.Classify(&samples[i]) {
			mismatches++
		}
	}
	st := engine.Stats()
	fmt.Printf("\ndifferential check: %d mismatches against direct generation-2 Classify across %d samples\n",
		mismatches, len(samples))
	fmt.Printf("engine: %d hits, %d misses, %d coalesced, %d swap(s); no request dropped\n",
		st.Hits, st.Misses, st.Coalesced, st.Swaps)
	if mismatches > 0 {
		log.Fatal("engine diverged from the retrained classifier")
	}
}

// classifyFlood submits samples concurrently and returns how many were
// labelled unknown.
func classifyFlood(engine *fhc.Engine, samples []fhc.Sample) int {
	preds := engine.ClassifyAll(samples)
	unknown := 0
	for i := range preds {
		if preds[i].Label == fhc.UnknownLabel {
			unknown++
		}
	}
	return unknown
}
