package main

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rf"
	"repro/internal/synth"
)

// fixture is a small synthetic corpus and a classifier trained on it,
// built once per test binary.
var fixture struct {
	once  sync.Once
	err   error
	bases [][]byte
	names []string
	clf   *core.Classifier
}

func testFixture(t testing.TB) ([][]byte, []string, *core.Classifier) {
	t.Helper()
	fixture.once.Do(func() {
		corpus, err := synth.Generate([]synth.ClassSpec{
			{Name: "Alpha", Samples: 8},
			{Name: "Beta", Samples: 8},
			{Name: "Gamma", Samples: 8},
		}, synth.Options{Seed: 7})
		if err != nil {
			fixture.err = err
			return
		}
		samples, err := dataset.FromCorpus(corpus, 0)
		if err != nil {
			fixture.err = err
			return
		}
		for _, s := range corpus.Samples {
			fixture.bases = append(fixture.bases, s.Binary)
			fixture.names = append(fixture.names, s.Exe)
		}
		fixture.clf, fixture.err = core.Train(samples, core.Config{
			Threshold: 0.3, Seed: 11, Forest: rf.Params{NumTrees: 30},
		})
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.bases, fixture.names, fixture.clf
}

// testGen returns a body generator over the fixture corpus with a pool
// of n bytes.
func testGen(t testing.TB, seed uint64, n int) *gen {
	bases, names, _ := testFixture(t)
	return &gen{seed: seed, bases: bases, names: names, pool: newPool(seed, n)}
}
