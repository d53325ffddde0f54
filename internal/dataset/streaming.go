package dataset

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"

	"repro/internal/extract"
	"repro/ssdeep"
)

// DefaultMaxSpill is the default bound on the spill buffer FromReader
// keeps for ELF structural parsing. It matches the HTTP layer's default
// body cap, so by default every accepted body gets every feature.
const DefaultMaxSpill = 64 << 20

// StreamInfo reports how a streamed extraction went.
type StreamInfo struct {
	// Bytes is the total number of body bytes consumed.
	Bytes int64
	// Complete reports that the whole input fit the spill buffer, so the
	// ELF structural features (symbols, needed libraries) were extracted
	// and the sample is the one FromBinary gives for the same bytes.
	// When false, only the single-pass features (SHA-256, file digest,
	// strings digest) are present and the symbols/needed digests are
	// zero.
	Complete bool
}

// featState is the pooled per-extraction scratch: the chunk buffer the
// reader is pumped through, the SHA-256 state, the printable-run
// scanner, and the spill buffer (which grows to its high-water mark and
// is then reused, so steady-state extraction allocates nothing).
type featState struct {
	sha   hash.Hash
	str   extract.StringStreamer
	buf   [64 << 10]byte
	spill []byte
}

var featPool = sync.Pool{New: func() any {
	return &featState{sha: sha256.New()}
}}

// FromReader extracts features from an ELF binary streamed out of r. It
// is the package's one extraction pipeline: FromBinary is a whole-buffer
// call into it. SHA-256, the file fuzzy digest and the strings fuzzy
// digest are computed incrementally in a single pass in constant
// memory. ELF structural parsing (symbols, DT_NEEDED) requires random
// access, so the input is also copied into a bounded spill buffer:
// inputs up to maxSpill bytes yield every feature, larger ones skip the
// structural features and report !StreamInfo.Complete. maxSpill <= 0
// selects DefaultMaxSpill. The spill holds min(input size, maxSpill)
// bytes: memory stops growing with the input only once the input
// exceeds maxSpill, and at the default bound an extraction can hold a
// whole 64 MiB input.
//
// A non-ELF input is rejected as soon as the first four bytes arrive,
// without consuming the rest of the stream. When r reports the bytes
// left to read through a Len() int method, as *bytes.Reader and
// *strings.Reader do, that length is passed to the file hasher as a
// hint; a reader that then delivers another length fails the call.
func FromReader(class, version, exe string, r io.Reader, maxSpill int) (Sample, StreamInfo, error) {
	s := Sample{Class: class, Version: version, Exe: exe}
	if maxSpill <= 0 {
		maxSpill = DefaultMaxSpill
	}

	st := featPool.Get().(*featState)
	defer featPool.Put(st)
	fileH := ssdeep.NewHasher()
	defer fileH.Release()
	if lr, ok := r.(interface{ Len() int }); ok {
		// The body length is known (a bytes.Reader, or a request body
		// with its Content-Length): the file hasher tracks fewer block
		// sizes per byte, and fails at Sum if r delivers another length.
		fileH.SetTotalLength(int64(lr.Len()))
	}
	strH := ssdeep.NewHasher()
	defer strH.Release()
	st.sha.Reset()
	st.str.Reset(strH, 0)
	st.spill = st.spill[:0]

	var (
		n         int64
		truncated bool
		magic     [4]byte
	)
	for {
		m, err := r.Read(st.buf[:])
		if m > 0 {
			chunk := st.buf[:m]
			if n < 4 {
				copy(magic[n:], chunk)
				if n+int64(m) >= 4 && !extract.IsELF(magic[:]) {
					return s, StreamInfo{Bytes: n + int64(m)},
						fmt.Errorf("dataset: %s: not an ELF executable", s.Path())
				}
			}
			n += int64(m)
			st.sha.Write(chunk)
			fileH.Write(chunk)
			st.str.Write(chunk)
			if !truncated {
				if len(st.spill)+m <= maxSpill {
					st.spill = append(st.spill, chunk...)
				} else {
					truncated = true
					st.spill = st.spill[:0]
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return s, StreamInfo{Bytes: n}, fmt.Errorf("dataset: reading %s: %w", s.Path(), err)
		}
	}
	if n < 4 {
		return s, StreamInfo{Bytes: n}, fmt.Errorf("dataset: %s: not an ELF executable", s.Path())
	}

	st.sha.Sum(s.SHA256[:0])
	fileDigest, err := fileH.Sum()
	if err != nil {
		return s, StreamInfo{Bytes: n}, fmt.Errorf("dataset: hashing %s: %w", s.Path(), err)
	}
	s.Digests[FeatureFile] = fileDigest

	st.str.Close()
	if st.str.Emitted() > 0 {
		d, err := strH.Sum()
		if err != nil {
			return s, StreamInfo{Bytes: n}, fmt.Errorf("dataset: hashing strings of %s: %w", s.Path(), err)
		}
		s.Digests[FeatureStrings] = d
	}

	info := StreamInfo{Bytes: n, Complete: !truncated}
	if truncated {
		return s, info, nil
	}

	// The whole input fit the spill buffer: finish the random-access ELF
	// features.
	symText, err := extract.SymbolsText(st.spill)
	switch {
	case errors.Is(err, extract.ErrNoSymbolTable):
		s.Stripped = true
	case err != nil:
		return s, info, fmt.Errorf("dataset: symbols of %s: %w", s.Path(), err)
	case len(symText) > 0:
		d, err := ssdeep.HashBytes(symText)
		if err != nil {
			return s, info, fmt.Errorf("dataset: hashing symbols of %s: %w", s.Path(), err)
		}
		s.Digests[FeatureSymbols] = d
	}

	neededText, err := extract.NeededText(st.spill)
	if err == nil && len(neededText) > 0 {
		if d, err := ssdeep.HashBytes(neededText); err == nil {
			s.Digests[FeatureNeeded] = d
		}
	}
	return s, info, nil
}
