package core

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/par"
	"repro/ssdeep"
)

// profileSet is a classifier's serving state: per feature position, one
// digest profile per known class (class index order) and a grouped
// 7-gram index over those profiles with classes as owner groups, scored
// under one distance. newProfileSet builds all of it, so featurisation
// only reads: it queries the index, visiting only training digests that
// share a 7-gram with the sample.
type profileSet struct {
	features []dataset.FeatureKind
	classes  []string
	dist     ssdeep.Distance
	// digests[k][ci] are class ci's canonical digest strings for
	// features[k], sorted and unique: what Save writes.
	digests [][][]string
	// indexes[k] is features[k]'s grouped index.
	indexes []*ssdeep.Index
}

// newProfileSet parses perKind, each feature position's per-class digest
// strings (one list per class, in class order), and builds each
// position's grouped index.
func newProfileSet(features []dataset.FeatureKind, classes []string, dist ssdeep.Distance, perKind [][][]string) (*profileSet, error) {
	ps := &profileSet{
		features: features,
		classes:  classes,
		dist:     dist,
		digests:  perKind,
		indexes:  make([]*ssdeep.Index, len(features)),
	}
	for k, perClass := range perKind {
		var digests []ssdeep.Digest
		var groups []int32
		for ci, strs := range perClass {
			for _, s := range strs {
				d, err := ssdeep.Parse(s)
				if err != nil {
					return nil, fmt.Errorf("core: model digest %q: %w", s, err)
				}
				digests = append(digests, d)
				groups = append(groups, int32(ci))
			}
		}
		ps.indexes[k] = ssdeep.NewIndex(digests, groups)
	}
	return ps, nil
}

// buildProfiles collects each class's training digests per feature kind
// and builds their profile set. Samples of classes outside classes are
// ignored, and so is a digest whose canonical string does not parse
// back: kept, it would burn a comparison slot on every sample and fail
// the Save/Load round trip.
func buildProfiles(samples []dataset.Sample, features []dataset.FeatureKind, classes []string, dist ssdeep.Distance) (*profileSet, error) {
	y := labelsOf(samples, classes)
	perKind := make([][][]string, len(features))
	for k, kind := range features {
		sets := make([]map[string]bool, len(classes))
		for i := range sets {
			sets[i] = map[string]bool{}
		}
		for i := range samples {
			d := samples[i].Digests[kind]
			if y[i] < 0 || d.IsZero() {
				continue
			}
			s := d.String()
			if _, err := ssdeep.Parse(s); err == nil {
				sets[y[i]][s] = true
			}
		}
		perKind[k] = make([][]string, len(classes))
		for ci, set := range sets {
			all := make([]string, 0, len(set))
			for s := range set {
				all = append(all, s)
			}
			sort.Strings(all)
			perKind[k][ci] = all
		}
	}
	return newProfileSet(features, classes, dist, perKind)
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
func (ps *profileSet) featurize(s *dataset.Sample) []float64 {
	out := make([]float64, 0, ps.numFeatures())
	for k, kind := range ps.features {
		d := s.Digests[kind]
		if d.IsZero() {
			for range ps.classes {
				out = append(out, 0)
			}
			continue
		}
		for _, score := range ps.indexes[k].QueryGroupsPrepared(ssdeep.Prepare(d), len(ps.classes), ps.dist) {
			out = append(out, float64(score))
		}
	}
	return out
}

// featurizeBatch featurises many samples with a bounded worker pool
// (workers <= 0 runs sequentially).
func (ps *profileSet) featurizeBatch(samples []dataset.Sample, workers int) [][]float64 {
	if workers <= 0 {
		workers = 1
	}
	out := make([][]float64, len(samples))
	par.Map(len(samples), workers, func(i int) {
		out[i] = ps.featurize(&samples[i])
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
