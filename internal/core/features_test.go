package core

import (
	"sort"
	"strings"
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
// every training digest of every class, prepared once per feature
// position.
type preparedProfiles struct {
	*profileSet
	prepared [][][]ssdeep.Prepared
}

func prepareProfiles(t testing.TB, ps *profileSet) *preparedProfiles {
	t.Helper()
	pp := &preparedProfiles{profileSet: ps, prepared: make([][][]ssdeep.Prepared, len(ps.features))}
	for k, perClass := range ps.digests {
		pp.prepared[k] = make([][]ssdeep.Prepared, len(perClass))
		for ci, digests := range perClass {
			for _, s := range digests {
				d, err := ssdeep.Parse(s)
				if err != nil {
					t.Fatal(err)
				}
				pp.prepared[k][ci] = append(pp.prepared[k][ci], ssdeep.Prepare(d))
			}
		}
	}
	return pp
}

// featurizeBruteForce is the oracle featurize is held to: it scores the
// sample's digest against every training digest of every class, an
// O(kinds × classes × digests) scan with no index.
func featurizeBruteForce(pp *preparedProfiles, s *dataset.Sample) []float64 {
	out := make([]float64, 0, pp.numFeatures())
	for k, kind := range pp.features {
		q := ssdeep.Prepare(s.Digests[kind])
		for _, class := range pp.prepared[k] {
			best := 0
			for _, p := range class {
				best = max(best, ssdeep.ComparePrepared(q, p, pp.dist))
			}
			out = append(out, float64(best))
		}
	}
	return out
}

// mustBuildProfiles is buildProfiles for tests, which fail on its error.
func mustBuildProfiles(t testing.TB, samples []dataset.Sample, features []dataset.FeatureKind, classes []string, dist ssdeep.Distance) *profileSet {
	t.Helper()
	ps, err := buildProfiles(samples, features, classes, dist)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestFeaturizeIndexedMatchesBruteForce is the differential test behind
// the index-backed hot path: over the full synthetic corpus (training
// and held-out samples alike) and every scoring distance, the
// grouped-index featurisation must reproduce the brute-force vectors
// bit for bit.
func TestFeaturizeIndexedMatchesBruteForce(t *testing.T) {
	samples, split := testData(t)
	train := gather(samples, split.TrainIdx)
	classes := classesOf(train)
	for di, name := range distanceNames {
		ps := mustBuildProfiles(t, train, paperKinds, classes, ssdeep.Distance(di))
		pp := prepareProfiles(t, ps)
		for i := range samples {
			indexed := ps.featurize(&samples[i])
			brute := featurizeBruteForce(pp, &samples[i])
			if len(indexed) != len(brute) {
				t.Fatalf("distance %s sample %d: vector lengths %d vs %d", name, i, len(indexed), len(brute))
			}
			for j := range indexed {
				if indexed[j] != brute[j] {
					t.Fatalf("distance %s sample %d column %d: indexed %v, brute force %v",
						name, i, j, indexed[j], brute[j])
				}
			}
		}
	}
}

// compareDP is the dynamic-programming oracle of a digest comparison:
// the ssdeep score of a and b with dist, a DP edit distance, in place of
// the bit-parallel kernel, and every guard checked on the bytes, with
// no prepared grams.
func compareDP(a, b ssdeep.Digest, dist func(a, b string) int) int {
	if a.IsZero() || b.IsZero() {
		return 0
	}
	if a.BlockSize != b.BlockSize && a.BlockSize != 2*b.BlockSize && 2*a.BlockSize != b.BlockSize {
		return 0
	}
	a1, a2 := collapseRuns(a.Sig1), collapseRuns(a.Sig2)
	b1, b2 := collapseRuns(b.Sig1), collapseRuns(b.Sig2)
	switch {
	case a.BlockSize == b.BlockSize && a1 == b1 && a2 == b2:
		return 100
	case a.BlockSize == b.BlockSize:
		return max(scoreDP(a1, b1, a.BlockSize, dist), scoreDP(a2, b2, 2*a.BlockSize, dist))
	case a.BlockSize == 2*b.BlockSize:
		return scoreDP(a1, b2, a.BlockSize, dist)
	default:
		return scoreDP(a2, b1, b.BlockSize, dist)
	}
}

// collapseRuns keeps at most three of each run of identical characters.
func collapseRuns(s string) string {
	out := make([]byte, 0, len(s))
	for i := range len(s) {
		if i < 3 || s[i] != s[i-1] || s[i] != s[i-2] || s[i] != s[i-3] {
			out = append(out, s[i])
		}
	}
	return string(out)
}

// scoreDP maps the dist edit distance of two normalised signatures onto
// the 0–100 similarity scale with the reference implementation's
// guards: a length bound, a shared 7-byte substring, and a cap at small
// block sizes.
func scoreDP(s1, s2 string, blockSize uint32, dist func(a, b string) int) int {
	const window = 7
	if len(s1) > ssdeep.SpamsumLength || len(s2) > ssdeep.SpamsumLength ||
		len(s1) < window || len(s2) < window {
		return 0
	}
	common := false
	for i := 0; i+window <= len(s1) && !common; i++ {
		common = strings.Contains(s2, s1[i:i+window])
	}
	if !common {
		return 0
	}
	score := 100 * (dist(s1, s2) * ssdeep.SpamsumLength / (len(s1) + len(s2))) / ssdeep.SpamsumLength
	if score >= 100 {
		return 0
	}
	score = 100 - score
	if blockSize < (99+window)/window*ssdeep.MinBlockSize {
		score = min(score, int(blockSize)/ssdeep.MinBlockSize*min(len(s1), len(s2)))
	}
	return score
}

// TestFeaturizeBitParallelMatchesDPOracle pins the fast-path contract of
// this layer end to end: featurisation under the bit-parallel distances
// (over the compressed grouped index) is bit-identical to a brute-force
// featurisation that scores every training digest with the distance's
// dynamic program.
func TestFeaturizeBitParallelMatchesDPOracle(t *testing.T) {
	samples, split := testData(t)
	train := gather(samples, split.TrainIdx)
	classes := classesOf(train)
	pairs := []struct {
		fast   ssdeep.Distance
		oracle func(a, b string) int
	}{
		{ssdeep.DistanceDL, editdist.OSADP},
		{ssdeep.DistanceLevenshtein, editdist.LevenshteinDP},
	}
	for _, pair := range pairs {
		name := distanceNames[pair.fast]
		ps := mustBuildProfiles(t, train, paperKinds, classes, pair.fast)
		trained := make([][][]ssdeep.Digest, len(ps.features))
		for k, perClass := range ps.digests {
			trained[k] = make([][]ssdeep.Digest, len(perClass))
			for ci, digests := range perClass {
				for _, s := range digests {
					d, err := ssdeep.Parse(s)
					if err != nil {
						t.Fatal(err)
					}
					trained[k][ci] = append(trained[k][ci], d)
				}
			}
		}
		for i := range samples {
			got := ps.featurize(&samples[i])
			want := make([]float64, 0, len(got))
			for k, kind := range ps.features {
				for _, class := range trained[k] {
					best := 0
					for _, d := range class {
						best = max(best, compareDP(samples[i].Digests[kind], d, pair.oracle))
					}
					want = append(want, float64(best))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("distance %s sample %d: vector lengths %d vs %d", name, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("distance %s sample %d column %d: bit-parallel %v, DP oracle %v",
						name, i, j, got[j], want[j])
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
	ps := mustBuildProfiles(t, train, paperKinds, classesOf(train), ssdeep.DistanceDL)
	batch := ps.featurizeBatch(samples, 8)
	for i := range samples {
		single := ps.featurize(&samples[i])
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
// the digest strings and the index.
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
	ps := mustBuildProfiles(t, samples, []dataset.FeatureKind{dataset.FeatureFile}, []string{"A", "B"}, ssdeep.DistanceDL)
	if a := ps.digests[0][0]; len(a) != 1 || a[0] != good.String() {
		t.Fatalf("class A kept %q, want [%q]", a, good.String())
	}
	if got := ps.indexes[0].Query(bad, 1); len(got) != 0 {
		t.Fatalf("index matched the unparseable digest: %+v", got)
	}
	if got := ps.indexes[0].Query(good, 100); len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("exact query for class A's digest found %+v, want entry 0 alone", got)
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
	pp := prepareProfiles(t, c.profiles)
	for i := range test {
		x := featurizeBruteForce(pp, &test[i])
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
// indexed/brute-force pair. Benchmarks run one at a time, so the first
// benchProfiles call fills it unguarded.
var benchCorpus struct {
	ps      *profileSet
	pp      *preparedProfiles
	queries []dataset.Sample
}

// benchProfiles builds class profiles over a synthetic corpus of 35
// known classes (10 under -short) and returns them, prepared for the
// oracle too, with the held-out samples to featurise.
func benchProfiles(b *testing.B) (*profileSet, *preparedProfiles, []dataset.Sample) {
	b.Helper()
	if benchCorpus.ps == nil {
		manifest := synth.SmallManifest(35, 9, 90)
		if testing.Short() {
			manifest = synth.SmallManifest(10, 3, 16)
		}
		corpus, err := synth.Generate(manifest, synth.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		samples, err := dataset.FromCorpus(corpus, 0)
		if err != nil {
			b.Fatal(err)
		}
		split, err := ml.SplitTwoPhase(samples, ml.SplitOptions{Mode: ml.PaperSplit, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		train := gather(samples, split.TrainIdx)
		benchCorpus.ps = mustBuildProfiles(b, train, paperKinds, classesOf(train), ssdeep.DistanceDL)
		benchCorpus.pp = prepareProfiles(b, benchCorpus.ps)
		benchCorpus.queries = gather(samples, split.TestIdx)
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

// profileSetSink keeps the benchmarked profile-set build from being
// elided.
var profileSetSink *profileSet

// BenchmarkNewProfileSet times the serving-state build Train and Load
// pay before they return: parsing the featurisation benchmarks' class
// profiles and building their per-kind grouped indexes.
func BenchmarkNewProfileSet(b *testing.B) {
	ps, _, _ := benchProfiles(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if profileSetSink, err = newProfileSet(ps.features, ps.classes, ps.dist, ps.digests); err != nil {
			b.Fatal(err)
		}
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
			featurizeSink = featurizeBruteForce(pp, q)
		} else {
			featurizeSink = ps.featurize(q)
		}
	}
}
