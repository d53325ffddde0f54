package dataset

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/extract"
	"repro/ssdeep"
)

// fromBinaryOracle is the buffered extraction pipeline: every feature
// computed from the whole binary in memory, each view built in full
// before it is hashed. It is the differential oracle FromReader, and so
// FromBinary, is tested against.
func fromBinaryOracle(class, version, exe string, bin []byte) (Sample, error) {
	s := Sample{Class: class, Version: version, Exe: exe}
	if !extract.IsELF(bin) {
		return s, fmt.Errorf("dataset: %s/%s/%s: not an ELF executable", class, version, exe)
	}
	s.SHA256 = sha256.Sum256(bin)

	fileDigest, err := ssdeep.HashBytes(bin)
	if err != nil {
		return s, fmt.Errorf("dataset: hashing %s: %w", s.Path(), err)
	}
	s.Digests[FeatureFile] = fileDigest

	if text := extract.StringsText(bin, 0); len(text) > 0 {
		d, err := ssdeep.HashBytes(text)
		if err != nil {
			return s, fmt.Errorf("dataset: hashing strings of %s: %w", s.Path(), err)
		}
		s.Digests[FeatureStrings] = d
	}

	symText, err := extract.SymbolsText(bin)
	switch {
	case errors.Is(err, extract.ErrNoSymbolTable):
		s.Stripped = true
	case err != nil:
		return s, fmt.Errorf("dataset: symbols of %s: %w", s.Path(), err)
	case len(symText) > 0:
		d, err := ssdeep.HashBytes(symText)
		if err != nil {
			return s, fmt.Errorf("dataset: hashing symbols of %s: %w", s.Path(), err)
		}
		s.Digests[FeatureSymbols] = d
	}

	neededText, err := extract.NeededText(bin)
	if err == nil && len(neededText) > 0 {
		if d, err := ssdeep.HashBytes(neededText); err == nil {
			s.Digests[FeatureNeeded] = d
		}
	}
	return s, nil
}
