// Cluster monitor: the paper's Figure 1 workflow as a running system. A
// simulated HPC site trains the Fuzzy Hash Classifier on its preinstalled
// software — including samples of known-bad software (a cryptominer
// family) — then watches a stream of job submissions through the monitor
// API, which answers the paper's three guiding questions:
//
//  1. is the application what this user normally runs?
//     (NewUserBehaviour findings)
//  2. does it fit the allocation's purpose? (PurposeDeviation findings)
//  3. does it match software that should never run? (BlockedApplication
//     findings, via the blocklist over known-bad classes)
//
// plus the catch-all for software the site has never seen
// (UnknownApplication findings).
package main

import (
	"fmt"
	"log"

	fhc "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cluster-monitor: ")

	// --- Site setup ----------------------------------------------------
	// Preinstalled scientific software plus collected samples of a miner
	// family: the paper's question 3 needs known-bad applications in the
	// training set so they can be recognised and blocked.
	siteSpecs := []fhc.ClassSpec{
		{Name: "GROMACS-like", Samples: 14},
		{Name: "OpenFOAM-like", Samples: 14},
		{Name: "BLAST-like", Samples: 14},
		{Name: "LAMMPS-like", Samples: 14},
		{Name: "XMRig-like", Samples: 6}, // known-bad: collected miner builds
	}
	corpus, err := fhc.GenerateCorpus(siteSpecs, fhc.CorpusOptions{Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	installed, err := fhc.SamplesFromCorpus(corpus, 0)
	if err != nil {
		log.Fatal(err)
	}
	clf, err := fhc.Train(installed, fhc.Config{Threshold: 0.6, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model trained on %d executables (%d classes), threshold %.2f\n\n",
		len(installed), len(clf.Classes()), clf.Threshold())

	// The serving engine fronts the classifier for the monitor: repeated
	// binaries are labelled from its exact-hash prediction cache and
	// concurrent submissions of one new binary share one featurisation.
	engine := fhc.NewEngine(clf, fhc.EngineOptions{})
	defer engine.Close()

	mon := fhc.NewMonitor(engine, fhc.MonitorPolicy{
		AllowedByAccount: map[string][]string{
			"bio-123": {"BLAST-like"},
			"mat-456": {"GROMACS-like", "LAMMPS-like"},
			"cfd-789": {"OpenFOAM-like"},
		},
		Blocklist: []string{"XMRig-like"},
	})
	// The prolog-hook collector: repeated executions of an unchanged
	// binary are recognised by exact hash and skip feature extraction.
	coll := fhc.NewCollector(fhc.CollectorOptions{})

	// --- The job stream -------------------------------------------------
	// A foreign application the site has never hashed at all.
	foreign, err := fhc.GenerateCorpus([]fhc.ClassSpec{
		{Name: "HomebrewSolver", Samples: 3},
	}, fhc.CorpusOptions{Seed: 1234})
	if err != nil {
		log.Fatal(err)
	}

	// Each submission arrives as raw binary content under a user-chosen
	// name — the identifier weakness the paper leads with. Labels come
	// from content, never from names.
	pickBin := func(class string, n int) []byte {
		var matches [][]byte
		for i := range corpus.Samples {
			if corpus.Samples[i].Class == class {
				matches = append(matches, corpus.Samples[i].Binary)
			}
		}
		return matches[n%len(matches)]
	}
	type submission struct {
		jobID, user, account, jobName, exe string
		binary                             []byte
	}
	jobs := []submission{
		{"1", "alice", "bio-123", "blast_run", "blastn", pickBin("BLAST-like", 0)},
		{"2", "bob", "mat-456", "md_prod", "mdrun", pickBin("GROMACS-like", 3)},
		{"3", "carol", "cfd-789", "cavity_512", "simpleFoam", pickBin("OpenFOAM-like", 1)},
		{"4", "bob", "mat-456", "md_prod_2", "lmp", pickBin("LAMMPS-like", 5)},
		{"5", "alice", "bio-123", "my job", "a.out", pickBin("OpenFOAM-like", 7)},
		{"6", "mallory", "cfd-789", "solver_run", "openfoam_solver", pickBin("XMRig-like", 1)},
		{"7", "mallory", "cfd-789", "solver_run2", "openfoam_post", foreign.Samples[0].Binary},
		// Carol re-runs the exact same solver binary: the collector's
		// crypto-hash cache recognises it without re-extraction.
		{"8", "carol", "cfd-789", "cavity_1024", "simpleFoam", pickBin("OpenFOAM-like", 1)},
	}

	flagged := 0
	for _, j := range jobs {
		sample, cached, err := coll.Collect(j.exe, j.binary)
		if err != nil {
			log.Fatal(err)
		}
		pred, findings := mon.Observe(fhc.JobEvent{
			JobID: j.jobID, User: j.user, Account: j.account,
			JobName: j.jobName, Sample: sample,
		})
		status := "ok"
		if len(findings) > 0 {
			status = "FLAGGED"
			flagged++
		}
		cacheNote := ""
		if cached {
			cacheNote = " (cached)"
		}
		fmt.Printf("job %s  user=%-8s account=%-8s name=%-16s label=%-14s conf=%.2f  %s%s\n",
			j.jobID, j.user, j.account, j.jobName, pred.Label, pred.Confidence, status, cacheNote)
		for _, f := range findings {
			fmt.Printf("       [%s] %s\n", f.Kind, f.Message)
		}
	}
	stats := coll.Stats()
	fmt.Printf("\n%d of %d jobs flagged for review; collector: %d seen, %d unique, %d cache hits\n",
		flagged, len(jobs), stats.Seen, stats.Unique, stats.CacheHits)
	es := engine.Stats()
	fmt.Printf("engine: %d featurised, %d prediction-cache hits\n", es.Misses, es.Hits)

	fmt.Println("\nper-user application history (the 'usual software' baseline):")
	for _, user := range []string{"alice", "bob", "carol", "mallory"} {
		fmt.Printf("  %-8s", user)
		for _, h := range mon.UserHistory(user) {
			fmt.Printf(" %s(%d)", h.Class, h.Count)
		}
		fmt.Println()
	}
}
