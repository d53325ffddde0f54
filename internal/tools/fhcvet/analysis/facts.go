package analysis

// Facts is the cross-package knowledge store: per analyzer, a map from
// a stable object key (e.g. "pkg/path.Struct.Field") to a short detail
// string (typically the position that established the fact). Facts are
// gob-encoded into the .vetx files the go vet driver threads through
// the build graph and merged across dependencies on import.
type Facts struct {
	ByAnalyzer map[string]map[string]string
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts {
	return &Facts{ByAnalyzer: map[string]map[string]string{}}
}

// Set records one fact for an analyzer.
func (f *Facts) Set(analyzer, key, detail string) {
	m := f.ByAnalyzer[analyzer]
	if m == nil {
		m = map[string]string{}
		f.ByAnalyzer[analyzer] = m
	}
	m[key] = detail
}

// Get looks up one fact.
func (f *Facts) Get(analyzer, key string) (string, bool) {
	detail, ok := f.ByAnalyzer[analyzer][key]
	return detail, ok
}

// Merge folds other's facts in; earlier details win on key collision
// (they carry the first position that established the fact).
func (f *Facts) Merge(other *Facts) {
	if other == nil {
		return
	}
	for analyzer, m := range other.ByAnalyzer {
		for key, detail := range m {
			if _, ok := f.Get(analyzer, key); !ok {
				f.Set(analyzer, key, detail)
			}
		}
	}
}
