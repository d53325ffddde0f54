package core

import (
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/par"
	"repro/ssdeep"
)

// classProfile is the fuzzy-hash signature set of one class for one
// feature kind: the deduplicated digests of its training samples.
type classProfile struct {
	digests []string // canonical digest strings (sorted, unique)
	parsed  []ssdeep.Digest
}

// profileSet holds, per feature kind, one profile per known class (class
// index order), plus a grouped 7-gram index per kind with classes as
// owner groups. Featurisation queries the index, visiting only training
// digests that share a 7-gram with the sample.
type profileSet struct {
	features []dataset.FeatureKind
	classes  []string
	profiles map[dataset.FeatureKind][]classProfile
	indexes  map[dataset.FeatureKind]*ssdeep.Index
	// indexOnce guards the lazy construction of the grouped indexes.
	indexOnce sync.Once
}

// buildProfiles collects per-class digest profiles from training samples;
// the per-kind grouped indexes are built lazily on first featurisation.
// classIndex maps class name to label; samples of classes not present in
// the index are ignored.
func buildProfiles(samples []dataset.Sample, features []dataset.FeatureKind, classes []string) *profileSet {
	classIndex := make(map[string]int, len(classes))
	for i, c := range classes {
		classIndex[c] = i
	}
	ps := &profileSet{
		features: features,
		classes:  classes,
		profiles: make(map[dataset.FeatureKind][]classProfile, len(features)),
	}
	for _, kind := range features {
		sets := make([]map[string]bool, len(classes))
		for i := range sets {
			sets[i] = map[string]bool{}
		}
		for i := range samples {
			ci, ok := classIndex[samples[i].Class]
			if !ok {
				continue
			}
			d := samples[i].Digests[kind]
			if d.IsZero() {
				continue
			}
			sets[ci][d.String()] = true
		}
		profiles := make([]classProfile, len(classes))
		for ci, set := range sets {
			all := make([]string, 0, len(set))
			for s := range set {
				all = append(all, s)
			}
			sort.Strings(all)
			p := classProfile{
				digests: make([]string, 0, len(all)),
				parsed:  make([]ssdeep.Digest, 0, len(all)),
			}
			for _, s := range all {
				d, err := ssdeep.Parse(s)
				if err != nil {
					// Drop the digest entirely: keeping the string while
					// leaving a zero parsed slot would burn a comparison
					// slot on every sample and poison Save/Load round-trips.
					continue
				}
				p.digests = append(p.digests, s)
				p.parsed = append(p.parsed, d)
			}
			profiles[ci] = p
		}
		ps.profiles[kind] = profiles
	}
	return ps
}

// ensureIndexes derives the per-kind grouped similarity indexes from the
// class profiles on first use; classes become owner groups, so one
// grouped query yields the whole per-class score row of a feature
// vector. Safe under featurizeBatch's worker pool.
func (ps *profileSet) ensureIndexes() {
	ps.indexOnce.Do(func() {
		ps.indexes = make(map[dataset.FeatureKind]*ssdeep.Index, len(ps.features))
		for _, kind := range ps.features {
			n := 0
			for _, p := range ps.profiles[kind] {
				n += len(p.parsed)
			}
			digests := make([]ssdeep.Digest, 0, n)
			groups := make([]int32, 0, n)
			for ci, p := range ps.profiles[kind] {
				digests = append(digests, p.parsed...)
				for range p.parsed {
					groups = append(groups, int32(ci))
				}
			}
			ps.indexes[kind] = ssdeep.NewIndex(digests, groups)
		}
	})
}

// numFeatures is the featurised dimensionality: |kinds| x |classes|.
func (ps *profileSet) numFeatures() int {
	return len(ps.features) * len(ps.classes)
}

// featurize renders one sample as its max-similarity vector: for each
// feature kind and each known class, the highest similarity between the
// sample's digest and any training digest of that class. This realises
// the paper's "feature matrix ... based on the SSDeep fuzzy hash
// similarity between sample features". The digest is prepared once and
// one grouped index query produces the per-class row, sublinear in the
// corpus size. The index is exact: the common-substring gate zeroes
// every pair it never visits, so the row equals a scan of every
// training digest of every class.
func (ps *profileSet) featurize(s *dataset.Sample, dist ssdeep.DistanceFunc) []float64 {
	ps.ensureIndexes()
	out := make([]float64, 0, ps.numFeatures())
	for _, kind := range ps.features {
		d := s.Digests[kind]
		if d.IsZero() {
			for range ps.classes {
				out = append(out, 0)
			}
			continue
		}
		for _, score := range ps.indexes[kind].QueryGroupsPrepared(ssdeep.Prepare(d), len(ps.classes), dist) {
			out = append(out, float64(score))
		}
	}
	return out
}

// featurizeBatch featurises many samples with a bounded worker pool
// (workers <= 0 runs sequentially).
func (ps *profileSet) featurizeBatch(samples []dataset.Sample, dist ssdeep.DistanceFunc, workers int) [][]float64 {
	if workers <= 0 {
		workers = 1
	}
	out := make([][]float64, len(samples))
	par.Map(len(samples), workers, func(i int) {
		out[i] = ps.featurize(&samples[i], dist)
	})
	return out
}

// appendEvidence appends the per-class open-set evidence of one
// featurised sample to dst: for each class, the highest similarity the
// sample showed to that class's training digests across all feature
// kinds — the distance channel the calibrated abstention rule floors.
// It reads the feature vector x already computed for the model, so the
// evidence costs one O(kinds × classes) scan, no extra comparisons.
//
// fhc:hotpath
func (ps *profileSet) appendEvidence(dst, x []float64) []float64 {
	n := len(ps.classes)
	for ci := 0; ci < n; ci++ {
		best := 0.0
		for k := range ps.features {
			if v := x[k*n+ci]; v > best {
				best = v
			}
		}
		dst = append(dst, best)
	}
	return dst
}

// featureGroups returns, for each feature kind, the column range
// [lo, hi) it occupies in the featurised vector; used to aggregate
// Random-Forest importances into the paper's per-feature Table 5.
func (ps *profileSet) featureGroups() map[dataset.FeatureKind][2]int {
	groups := make(map[dataset.FeatureKind][2]int, len(ps.features))
	for i, kind := range ps.features {
		lo := i * len(ps.classes)
		groups[kind] = [2]int{lo, lo + len(ps.classes)}
	}
	return groups
}
