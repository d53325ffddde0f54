package core

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/editdist"
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

// preparedProfiles is the brute-force oracle's view of a profileSet:
// every training digest of every class, prepared once per feature kind.
type preparedProfiles struct {
	*profileSet
	prepared map[dataset.FeatureKind][][]ssdeep.Prepared
}

func prepareProfiles(ps *profileSet) *preparedProfiles {
	pp := &preparedProfiles{profileSet: ps, prepared: map[dataset.FeatureKind][][]ssdeep.Prepared{}}
	for _, kind := range ps.features {
		classes := make([][]ssdeep.Prepared, len(ps.classes))
		for ci, p := range ps.profiles[kind] {
			for _, d := range p.parsed {
				classes[ci] = append(classes[ci], ssdeep.Prepare(d))
			}
		}
		pp.prepared[kind] = classes
	}
	return pp
}

// featurizeBruteForce is the oracle featurize is held to: it scores the
// sample's digest against every training digest of every class, an
// O(kinds × classes × digests) scan with no index.
func featurizeBruteForce(pp *preparedProfiles, s *dataset.Sample, dist ssdeep.DistanceFunc) []float64 {
	out := make([]float64, 0, pp.numFeatures())
	for _, kind := range pp.features {
		q := ssdeep.Prepare(s.Digests[kind])
		for _, class := range pp.prepared[kind] {
			best := 0
			for _, p := range class {
				best = max(best, ssdeep.ComparePrepared(q, p, dist))
			}
			out = append(out, float64(best))
		}
	}
	return out
}

// TestFeaturizeIndexedMatchesBruteForce is the differential test behind
// the index-backed hot path: over the full synthetic corpus (training
// and held-out samples alike) and all five scoring distances, the
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
		"damerau-levenshtein-dp": editdist.OSADP,
		"levenshtein-dp":         editdist.LevenshteinDP,
	} {
		ps := buildProfiles(train, paperKinds, classes)
		pp := prepareProfiles(ps)
		for i := range samples {
			indexed := ps.featurize(&samples[i], dist)
			brute := featurizeBruteForce(pp, &samples[i], dist)
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
		{"damerau-levenshtein", ssdeep.DistanceDL, editdist.OSADP},
		{"levenshtein", ssdeep.DistanceLevenshtein, editdist.LevenshteinDP},
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
// the digest strings and the parsed set.
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
	p := ps.profiles[dataset.FeatureFile][0]
	if len(p.digests) != 1 || len(p.parsed) != 1 {
		t.Fatalf("class A profile kept %d digests / %d parsed, want 1/1",
			len(p.digests), len(p.parsed))
	}
	if p.digests[0] != good.String() {
		t.Fatalf("class A kept %q, want %q", p.digests[0], good.String())
	}
	if got := ps.indexes[dataset.FeatureFile].Query(bad, 1); len(got) != 0 {
		t.Fatalf("index matched the unparseable digest: %+v", got)
	}
}

// TestClassifyMatchesOracleFeatures drives the brute-force oracle end to
// end: for every held-out sample, Classify must equal the trained
// classifier's prediction from the oracle's feature vector.
func TestClassifyMatchesOracleFeatures(t *testing.T) {
	samples, split := testData(t)
	train := gather(samples, split.TrainIdx)
	test := gather(samples, split.TestIdx)

	c, err := Train(train, fixedConfig())
	if err != nil {
		t.Fatal(err)
	}
	pp := prepareProfiles(c.profiles)
	for i := range test {
		x := featurizeBruteForce(pp, &test[i], c.distance)
		want := c.PredictFromProba(c.profiles.appendEvidence(c.mdl.PredictProba(x), x))
		if got := c.Classify(&test[i]); got != want {
			t.Fatalf("sample %d: Classify %+v, from oracle features %+v", i, got, want)
		}
	}
}

func mustDigest(t *testing.T, content string) ssdeep.Digest {
	t.Helper()
	d, err := ssdeep.HashBytes([]byte(content))
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

// benchCorpus caches the featurisation benchmarks' class profiles, their
// oracle preparation and held-out queries, shared by the
// indexed/brute-force pair.
var benchCorpus struct {
	once    sync.Once
	ps      *profileSet
	pp      *preparedProfiles
	queries []dataset.Sample
	err     error
}

// benchProfiles builds class profiles over a synthetic corpus of 35
// known classes (10 under -short) and returns them, prepared for the
// oracle too, with the held-out samples to featurise.
func benchProfiles(b *testing.B) (*profileSet, *preparedProfiles, []dataset.Sample) {
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
		benchCorpus.pp = prepareProfiles(benchCorpus.ps)
		benchCorpus.queries = gather(samples, split.TestIdx)
	})
	if benchCorpus.err != nil {
		b.Fatal(benchCorpus.err)
	}
	return benchCorpus.ps, benchCorpus.pp, benchCorpus.queries
}

// BenchmarkFeaturizeIndexed and BenchmarkFeaturizeBruteForce read as a
// before/after pair under `-bench 'Featurize(Indexed|BruteForce)'`: one
// grouped 7-gram index query per feature kind versus the oracle's scan
// of every training digest of every class.
func BenchmarkFeaturizeIndexed(b *testing.B) { benchmarkFeaturize(b, false) }

// BenchmarkFeaturizeBruteForce times the O(corpus) oracle scan over
// training digests prepared once during setup.
func BenchmarkFeaturizeBruteForce(b *testing.B) { benchmarkFeaturize(b, true) }

// ensureIndexesSink keeps the benchmarked index build from being elided.
var ensureIndexesSink *profileSet

// BenchmarkEnsureIndexes times the per-kind grouped index build a
// worker pays before its first featurisation, on the featurisation
// benchmarks' class profiles.
func BenchmarkEnsureIndexes(b *testing.B) {
	ps, _, _ := benchProfiles(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ensureIndexesSink = &profileSet{features: ps.features, classes: ps.classes, profiles: ps.profiles}
		ensureIndexesSink.ensureIndexes()
	}
}

// featurizeSink keeps the benchmarked featurisation from being elided.
var featurizeSink []float64

func benchmarkFeaturize(b *testing.B, bruteForce bool) {
	ps, pp, queries := benchProfiles(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := &queries[i%len(queries)]
		if bruteForce {
			featurizeSink = featurizeBruteForce(pp, q, ssdeep.DistanceDL)
		} else {
			featurizeSink = ps.featurize(q, ssdeep.DistanceDL)
		}
	}
}
