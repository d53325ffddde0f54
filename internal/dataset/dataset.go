// Package dataset turns application executables into labelled samples
// carrying the paper's features: a cryptographic hash (the exact-match
// baseline), and ssdeep fuzzy digests of the raw file, its strings(1)
// view, its nm(1) global-symbol view and its DT_NEEDED libraries (the
// paper's future-work ldd feature). Samples come either from an in-memory
// synthetic corpus or from scanning a directory tree laid out the way the
// paper's cluster stores software: Class/Version/executable.
//
// Concurrency contract: Scan and FromCorpus extract in parallel
// internally (bounded by their workers argument) and return only after
// every extraction completes. A Sample is a plain value — once built it
// is never mutated by this package, so samples may be shared, copied and
// read from any goroutine.
package dataset

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/extract"
	"repro/internal/par"
	"repro/internal/synth"
	"repro/ssdeep"
)

// FeatureKind enumerates the fuzzy-hash features of a sample.
type FeatureKind int

// Feature kinds, in the order the paper introduces them. FeatureNeeded is
// the optional ldd-style extension feature.
const (
	FeatureFile FeatureKind = iota
	FeatureStrings
	FeatureSymbols
	FeatureNeeded
	NumFeatureKinds
)

// String returns the paper's feature name (Table 5 naming).
func (k FeatureKind) String() string {
	switch k {
	case FeatureFile:
		return "ssdeep-file"
	case FeatureStrings:
		return "ssdeep-strings"
	case FeatureSymbols:
		return "ssdeep-symbols"
	case FeatureNeeded:
		return "ssdeep-needed"
	default:
		return fmt.Sprintf("FeatureKind(%d)", int(k))
	}
}

// Sample is one labelled executable reduced to its features. The binary
// itself is not retained: as the paper notes, fuzzy hashes avoid the
// storage, integrity and privacy concerns of keeping raw user files.
type Sample struct {
	// Class is the application-class label.
	Class string
	// Version is the version-directory label.
	Version string
	// Exe is the executable name.
	Exe string
	// UnknownClass marks the paper's Table 3 unknown-split membership.
	UnknownClass bool
	// Stripped records that the binary had no symbol table; its
	// FeatureSymbols digest is zero.
	Stripped bool
	// SHA256 is the cryptographic digest used by the exact-match baseline.
	SHA256 [sha256.Size]byte
	// Digests holds one fuzzy digest per feature kind; a zero digest
	// means the feature was unavailable (e.g. symbols of a stripped
	// binary, needed libraries of a static binary).
	Digests [NumFeatureKinds]ssdeep.Digest
}

// Path returns the Class/Version/Exe install path of the sample.
func (s *Sample) Path() string {
	return filepath.Join(s.Class, s.Version, s.Exe)
}

// FromBinary extracts all features from an ELF binary held in memory:
// one whole-buffer FromReader call, with a spill bound that fits bin.
// Stripped binaries are not an error: they yield a zero symbols digest
// and Stripped=true, leaving the policy decision to the classifier (the
// paper treats stripping as a limitation, not a crash).
func FromBinary(class, version, exe string, bin []byte) (Sample, error) {
	s, _, err := FromReader(class, version, exe, bytes.NewReader(bin), len(bin))
	return s, err
}

// FromCorpus extracts features from every sample of a synthetic corpus
// using a bounded worker pool. workers <= 0 selects GOMAXPROCS.
func FromCorpus(c *synth.Corpus, workers int) ([]Sample, error) {
	out := make([]Sample, len(c.Samples))
	errs := make([]error, len(c.Samples))
	par.Map(len(c.Samples), workers, func(i int) {
		src := &c.Samples[i]
		s, err := FromBinary(src.Class, src.Version, src.Exe, src.Binary)
		if err != nil {
			errs[i] = err
			return
		}
		s.UnknownClass = src.Unknown
		out[i] = s
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Scan loads samples from a directory tree following the paper's install
// layout root/Class/Version/executable, labelling each sample by its
// path. Non-ELF files are skipped silently (install trees contain
// scripts, data and documentation). workers <= 0 selects GOMAXPROCS.
func Scan(root string, workers int) ([]Sample, error) {
	type job struct {
		class, version, exe, path string
	}
	var jobs []job
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		parts := strings.Split(filepath.ToSlash(rel), "/")
		if len(parts) < 3 {
			return nil // not Class/Version/exe
		}
		jobs = append(jobs, job{
			class:   parts[0],
			version: strings.Join(parts[1:len(parts)-1], "/"),
			exe:     parts[len(parts)-1],
			path:    path,
		})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dataset: scanning %s: %w", root, err)
	}
	out := make([]Sample, len(jobs))
	keep := make([]bool, len(jobs))
	errs := make([]error, len(jobs))
	par.Map(len(jobs), workers, func(i int) {
		j := jobs[i]
		bin, err := os.ReadFile(j.path)
		if err != nil {
			errs[i] = err
			return
		}
		if !extract.IsELF(bin) {
			return
		}
		s, err := FromBinary(j.class, j.version, j.exe, bin)
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = s
		keep[i] = true
	})
	var samples []Sample
	for i := range jobs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if keep[i] {
			samples = append(samples, out[i])
		}
	}
	return samples, nil
}

// ApplyPaperCollectionRules filters samples the way the paper collects
// them: stripped binaries are dropped (no usable symbol table) and only
// classes with at least minVersions distinct versions survive. The paper
// uses minVersions = 3.
func ApplyPaperCollectionRules(samples []Sample, minVersions int) []Sample {
	versions := map[string]map[string]bool{}
	for i := range samples {
		s := &samples[i]
		if s.Stripped {
			continue
		}
		if versions[s.Class] == nil {
			versions[s.Class] = map[string]bool{}
		}
		versions[s.Class][s.Version] = true
	}
	var out []Sample
	for i := range samples {
		s := &samples[i]
		if s.Stripped {
			continue
		}
		if len(versions[s.Class]) >= minVersions {
			out = append(out, *s)
		}
	}
	return out
}

// ClassCount is a class name with its sample count.
type ClassCount struct {
	Class string
	Count int
}

// Stats summarises a sample set.
type Stats struct {
	// Samples is the total sample count.
	Samples int
	// Classes is the number of distinct classes.
	Classes int
	// Counts lists per-class sample counts, descending by count then
	// ascending by name — the ordering of the paper's Figure 2.
	Counts []ClassCount
	// Stripped is the number of stripped samples.
	Stripped int
}

// ComputeStats summarises samples.
func ComputeStats(samples []Sample) Stats {
	perClass := map[string]int{}
	stripped := 0
	for i := range samples {
		perClass[samples[i].Class]++
		if samples[i].Stripped {
			stripped++
		}
	}
	st := Stats{Samples: len(samples), Classes: len(perClass), Stripped: stripped}
	for c, n := range perClass {
		st.Counts = append(st.Counts, ClassCount{Class: c, Count: n})
	}
	sort.Slice(st.Counts, func(i, j int) bool {
		if st.Counts[i].Count != st.Counts[j].Count {
			return st.Counts[i].Count > st.Counts[j].Count
		}
		return st.Counts[i].Class < st.Counts[j].Class
	})
	return st
}
