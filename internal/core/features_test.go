package core

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/synth"
	"repro/ssdeep"
)

// paperKinds are the three fuzzy-hash features of the paper.
var paperKinds = []dataset.FeatureKind{
	dataset.FeatureFile, dataset.FeatureStrings, dataset.FeatureSymbols,
}

// classesOf collects the sorted distinct classes of a sample set the way
// Train does.
func classesOf(samples []dataset.Sample) []string {
	set := map[string]bool{}
	for i := range samples {
		set[samples[i].Class] = true
	}
	classes := make([]string, 0, len(set))
	for c := range set {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	return classes
}

// TestFeaturizeIndexedMatchesBruteForce is the differential test behind
// the index-backed hot path: over the full synthetic corpus (training
// and held-out samples alike) and all three scoring distances, the
// grouped-index featurisation must reproduce the brute-force vectors
// bit for bit.
func TestFeaturizeIndexedMatchesBruteForce(t *testing.T) {
	samples, split := testData(t)
	train := gather(samples, split.TrainIdx)
	classes := classesOf(train)
	for dn, dist := range map[string]ssdeep.DistanceFunc{
		"damerau-levenshtein":    ssdeep.DistanceDL,
		"levenshtein":            ssdeep.DistanceLevenshtein,
		"spamsum":                ssdeep.DistanceSpamsum,
		"damerau-levenshtein-dp": ssdeep.DistanceDLOracle,
		"levenshtein-dp":         ssdeep.DistanceLevenshteinOracle,
	} {
		ps := buildProfiles(train, paperKinds, classes)
		for i := range samples {
			indexed := ps.featurizeMode(&samples[i], dist, false)
			brute := ps.featurizeMode(&samples[i], dist, true)
			if len(indexed) != len(brute) {
				t.Fatalf("distance %s sample %d: vector lengths %d vs %d", dn, i, len(indexed), len(brute))
			}
			for j := range indexed {
				if indexed[j] != brute[j] {
					t.Fatalf("distance %s sample %d column %d: indexed %v, brute force %v",
						dn, i, j, indexed[j], brute[j])
				}
			}
		}
	}
}

// TestFeaturizeBitParallelMatchesDPOracle pins the fast-path contract of
// this layer end to end: featurisation under the default bit-parallel
// distances (over the compressed grouped index) is bit-identical to
// featurisation under the retained dynamic-programming oracles.
func TestFeaturizeBitParallelMatchesDPOracle(t *testing.T) {
	samples, split := testData(t)
	train := gather(samples, split.TrainIdx)
	classes := classesOf(train)
	pairs := []struct {
		name         string
		fast, oracle ssdeep.DistanceFunc
	}{
		{"damerau-levenshtein", ssdeep.DistanceDL, ssdeep.DistanceDLOracle},
		{"levenshtein", ssdeep.DistanceLevenshtein, ssdeep.DistanceLevenshteinOracle},
	}
	for _, pair := range pairs {
		ps := buildProfiles(train, paperKinds, classes)
		for i := range samples {
			got := ps.featurize(&samples[i], pair.fast)
			want := ps.featurize(&samples[i], pair.oracle)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("distance %s sample %d column %d: bit-parallel %v, DP oracle %v",
						pair.name, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestFeaturizeBatchMatchesSingle guards the concurrency of the shared
// grouped indexes: parallel batch featurisation must equal the serial
// per-sample path.
func TestFeaturizeBatchMatchesSingle(t *testing.T) {
	samples, split := testData(t)
	train := gather(samples, split.TrainIdx)
	ps := buildProfiles(train, paperKinds, classesOf(train))
	batch := ps.featurizeBatch(samples, ssdeep.DistanceDL, 8)
	for i := range samples {
		single := ps.featurize(&samples[i], ssdeep.DistanceDL)
		for j := range single {
			if batch[i][j] != single[j] {
				t.Fatalf("sample %d column %d: batch %v, single %v", i, j, batch[i][j], single[j])
			}
		}
	}
}

// TestBuildProfilesDropsUnparseableDigests is the regression test for
// the silent-zero-Prepared bug: a digest whose canonical string fails to
// re-parse (block size below the minimum) used to leave a zero-valued
// Prepared in the profile that every sample was then compared against,
// and poisoned Save/Load round-trips. The slot must be dropped from both
// the digest strings and the prepared set.
func TestBuildProfilesDropsUnparseableDigests(t *testing.T) {
	good := mustDigest(t, "valid-but-distinctive-content-AAAA")
	bad := ssdeep.Digest{BlockSize: 1, Sig1: "abcdefgh", Sig2: "ijkl"} // below MinBlockSize
	if _, err := ssdeep.Parse(bad.String()); err == nil {
		t.Fatal("test premise broken: bad digest parsed")
	}
	samples := []dataset.Sample{
		sampleWith(t, "A", good),
		sampleWith(t, "A", bad),
		sampleWith(t, "B", mustDigest(t, "other-class-content-BBBB")),
	}
	ps := buildProfiles(samples, []dataset.FeatureKind{dataset.FeatureFile}, []string{"A", "B"})
	ps.ensureIndexes()
	ps.ensurePrepared()
	p := ps.profiles[dataset.FeatureFile][0]
	if len(p.digests) != 1 || len(p.parsed) != 1 || len(p.prepared) != 1 {
		t.Fatalf("class A profile kept %d digests / %d parsed / %d prepared, want 1/1/1",
			len(p.digests), len(p.parsed), len(p.prepared))
	}
	if p.digests[0] != good.String() {
		t.Fatalf("class A kept %q, want %q", p.digests[0], good.String())
	}
	if p.prepared[0].IsZero() {
		t.Fatal("class A prepared slot is zero-valued")
	}
	if got := ps.indexes[dataset.FeatureFile].Len(); got != 2 {
		t.Fatalf("index holds %d entries, want 2 (the parseable digests)", got)
	}
}

// withBruteForce runs fn with every featurisation routed through the
// brute-force oracle scan, restoring the indexed path afterwards.
func withBruteForce(fn func()) {
	bruteForceFeaturize = true
	defer func() { bruteForceFeaturize = false }()
	fn()
}

// TestConfigBruteForceFeaturize drives the oracle end to end: a
// classifier trained on brute-force features must predict identically
// to the default indexed one, and switching a trained model to the
// oracle must not change its feature vectors.
func TestConfigBruteForceFeaturize(t *testing.T) {
	samples, split := testData(t)
	train := gather(samples, split.TrainIdx)
	test := gather(samples, split.TestIdx)

	indexed, err := Train(train, fixedConfig())
	if err != nil {
		t.Fatal(err)
	}
	var brute *Classifier
	withBruteForce(func() { brute, err = Train(train, fixedConfig()) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range test {
		a := indexed.Classify(&test[i])
		var b Prediction
		withBruteForce(func() { b = brute.Classify(&test[i]) })
		if a != b {
			t.Fatalf("sample %d: indexed %+v, brute force %+v", i, a, b)
		}
	}

	want := indexed.Featurize(&test[0])
	var got []float64
	withBruteForce(func() { got = indexed.Featurize(&test[0]) })
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("runtime toggle changed feature %d: %v vs %v", j, got[j], want[j])
		}
	}
}

func mustDigest(t *testing.T, content string) ssdeep.Digest {
	t.Helper()
	d, err := ssdeep.HashString(content)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sampleWith(t *testing.T, class string, d ssdeep.Digest) dataset.Sample {
	t.Helper()
	s := dataset.Sample{Class: class}
	s.Digests[dataset.FeatureFile] = d
	return s
}

// benchCorpus caches the featurisation benchmarks' class profiles and
// held-out queries, shared by the indexed/brute-force pair.
var benchCorpus struct {
	once    sync.Once
	ps      *profileSet
	queries []dataset.Sample
	err     error
}

// benchProfiles builds class profiles over a synthetic corpus of 35
// known classes (10 under -short) and returns them with the held-out
// samples to featurise.
func benchProfiles(b *testing.B) (*profileSet, []dataset.Sample) {
	b.Helper()
	benchCorpus.once.Do(func() {
		manifest := synth.SmallManifest(35, 9, 90)
		if testing.Short() {
			manifest = synth.SmallManifest(10, 3, 16)
		}
		corpus, err := synth.Generate(manifest, synth.Options{Seed: 1})
		if err != nil {
			benchCorpus.err = err
			return
		}
		samples, err := dataset.FromCorpus(corpus, 0)
		if err != nil {
			benchCorpus.err = err
			return
		}
		split, err := ml.SplitTwoPhase(samples, ml.SplitOptions{Mode: ml.PaperSplit, Seed: 1})
		if err != nil {
			benchCorpus.err = err
			return
		}
		train := gather(samples, split.TrainIdx)
		benchCorpus.ps = buildProfiles(train, paperKinds, classesOf(train))
		benchCorpus.queries = gather(samples, split.TestIdx)
	})
	if benchCorpus.err != nil {
		b.Fatal(benchCorpus.err)
	}
	return benchCorpus.ps, benchCorpus.queries
}

// BenchmarkFeaturizeIndexed and BenchmarkFeaturizeBruteForce read as a
// before/after pair under `-bench 'Featurize(Indexed|BruteForce)'`: one
// grouped 7-gram index query per feature kind versus the oracle's scan
// of every training digest of every class.
func BenchmarkFeaturizeIndexed(b *testing.B) { benchmarkFeaturize(b, false) }

// BenchmarkFeaturizeBruteForce times the retained O(corpus) oracle.
func BenchmarkFeaturizeBruteForce(b *testing.B) { benchmarkFeaturize(b, true) }

// featurizeSink keeps the benchmarked featurisation from being elided.
var featurizeSink []float64

func benchmarkFeaturize(b *testing.B, bruteForce bool) {
	ps, queries := benchProfiles(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		featurizeSink = ps.featurizeMode(&queries[i%len(queries)], ssdeep.DistanceDL, bruteForce)
	}
}
