// Package ssdeep is a from-scratch implementation of similarity-preserving
// fuzzy hashing using Context Triggered Piecewise Hashing (CTPH), the
// technique introduced by Kornblum ("Identifying almost identical files
// using context triggered piecewise hashing", Digital Investigation 2006)
// and popularised by the ssdeep tool.
//
// A fuzzy digest has the textual form
//
//	blocksize:signature1:signature2
//
// where signature1 is computed with the stated block size and signature2
// with twice that block size. Two digests can be compared even when the
// underlying inputs differ, yielding a similarity score between 0 (no
// similarity) and 100 (identical). Following the reproduced paper, the
// default scoring distance is the restricted Damerau–Levenshtein edit
// distance (Equation 1 of the paper); the historic spamsum weighted edit
// distance and plain Levenshtein distance are available for ablation.
package ssdeep

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/editdist"
)

const (
	// SpamsumLength is the maximum length of each digest signature.
	SpamsumLength = 64
	// MinBlockSize is the smallest CTPH block size.
	MinBlockSize = 3
	// rollingWindow is the width of the rolling-hash window that triggers
	// chunk boundaries and defines the common-substring gate.
	rollingWindow = 7
	// hashPrime and hashInit parameterise the FNV-style chunk hash.
	hashPrime = 0x01000193
	hashInit  = 0x28021967
	// b64 is the alphabet used to emit digest characters.
	b64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	// maxRepeat is the longest run of identical characters kept when
	// normalising a signature before comparison; longer runs carry no
	// information (they arise from repeated content) and would skew the
	// edit distance.
	maxRepeat = 3
)

// ErrEmptyInput is returned when hashing zero bytes; a fuzzy hash of an
// empty input carries no similarity information.
var ErrEmptyInput = errors.New("ssdeep: empty input")

// Digest is a parsed fuzzy hash.
type Digest struct {
	// BlockSize is the block size used for Sig1; Sig2 uses twice this.
	BlockSize uint32
	// Sig1 and Sig2 are the two piecewise signatures.
	Sig1, Sig2 string
}

// String renders the digest in the canonical blocksize:sig1:sig2 form.
func (d Digest) String() string {
	return strconv.FormatUint(uint64(d.BlockSize), 10) + ":" + d.Sig1 + ":" + d.Sig2
}

// IsZero reports whether d is the zero digest.
func (d Digest) IsZero() bool {
	return d.BlockSize == 0 && d.Sig1 == "" && d.Sig2 == ""
}

// Parse parses a digest in blocksize:sig1:sig2 form.
func Parse(s string) (Digest, error) {
	first := strings.IndexByte(s, ':')
	if first < 0 {
		return Digest{}, fmt.Errorf("ssdeep: malformed digest %q: missing separator", s)
	}
	second := strings.IndexByte(s[first+1:], ':')
	if second < 0 {
		return Digest{}, fmt.Errorf("ssdeep: malformed digest %q: missing second separator", s)
	}
	second += first + 1
	bs, err := strconv.ParseUint(s[:first], 10, 32)
	if err != nil {
		return Digest{}, fmt.Errorf("ssdeep: malformed block size in %q: %w", s, err)
	}
	if bs < MinBlockSize {
		return Digest{}, fmt.Errorf("ssdeep: block size %d below minimum %d", bs, MinBlockSize)
	}
	d := Digest{
		BlockSize: uint32(bs),
		Sig1:      s[first+1 : second],
		Sig2:      s[second+1:],
	}
	if len(d.Sig1) > SpamsumLength || len(d.Sig2) > SpamsumLength {
		return Digest{}, fmt.Errorf("ssdeep: signature too long in %q", s)
	}
	return d, nil
}

// rollState is the spamsum rolling hash over a 7-byte window. The sum of
// its three components changes whenever any byte in the window changes,
// which is what makes chunk boundaries content-triggered. The window is
// a ring: the byte at count n sits in window[n%rollingWindow].
type rollState struct {
	window [rollingWindow]byte
	h1     uint32 // sum of window bytes
	h2     uint32 // position-weighted sum
	h3     uint32 // shift-xor mix
	n      uint32 // total bytes consumed
}

// HashBytes computes the fuzzy digest of data: one whole-buffer run of
// the streaming Hasher, with the length declared up front.
func HashBytes(data []byte) (Digest, error) {
	h := NewHasher()
	defer h.Release()
	h.SetTotalLength(int64(len(data)))
	h.Write(data)
	return h.Sum()
}

// DistanceFunc measures the dissimilarity of two signature strings.
// Smaller is more similar; 0 means identical.
type DistanceFunc func(a, b string) int

// Distance functions selectable for scoring. The paper specifies the
// Damerau–Levenshtein distance; DistanceDL is therefore the default.
var (
	// DistanceDL is the restricted Damerau–Levenshtein distance of the
	// paper's Equation 1 (unit-cost insert/delete/substitute/transpose).
	DistanceDL DistanceFunc = editdist.OSA
	// DistanceLevenshtein is the plain Levenshtein distance.
	DistanceLevenshtein DistanceFunc = editdist.Levenshtein
	// DistanceSpamsum is the weighted edit distance of the original
	// spamsum implementation (insert/delete 1, substitute 3, transpose 5).
	DistanceSpamsum DistanceFunc = func(a, b string) int {
		return editdist.Weighted(a, b, editdist.SpamsumCosts())
	}
)

// Compare returns the similarity score of two digests on the scale 0–100
// using the default Damerau–Levenshtein distance.
func Compare(a, b Digest) int {
	return CompareDistance(a, b, DistanceDL)
}

// CompareDistance returns the similarity score of two digests using the
// supplied signature distance: ComparePrepared on the prepared digests.
// Callers comparing one digest against many should Prepare it once.
func CompareDistance(a, b Digest, dist DistanceFunc) int {
	return ComparePrepared(Prepare(a), Prepare(b), dist)
}

// normalize collapses runs of more than maxRepeat identical characters,
// mirroring eliminate_sequences in the reference implementation.
func normalize(s string) string {
	if len(s) <= maxRepeat {
		return s
	}
	run := 1
	needs := false
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			run++
			if run > maxRepeat {
				needs = true
				break
			}
		} else {
			run = 1
		}
	}
	if !needs {
		return s
	}
	out := make([]byte, 0, len(s))
	run = 0
	for i := 0; i < len(s); i++ {
		if i > 0 && s[i] == s[i-1] {
			run++
		} else {
			run = 1
		}
		if run <= maxRepeat {
			out = append(out, s[i])
		}
	}
	return string(out)
}
