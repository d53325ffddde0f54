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
	"io"
	"os"
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
// which is what makes chunk boundaries content-triggered.
type rollState struct {
	window [rollingWindow]byte
	h1     uint32 // sum of window bytes
	h2     uint32 // position-weighted sum
	h3     uint32 // shift-xor mix
	n      uint32 // total bytes consumed
}

func (r *rollState) roll(c byte) uint32 {
	r.h2 -= r.h1
	r.h2 += rollingWindow * uint32(c)
	r.h1 += uint32(c)
	r.h1 -= uint32(r.window[r.n%rollingWindow])
	r.window[r.n%rollingWindow] = c
	r.n++
	r.h3 <<= 5
	r.h3 ^= uint32(c)
	return r.h1 + r.h2 + r.h3
}

// sumHash is the FNV-1 style piecewise chunk hash.
func sumHash(h uint32, c byte) uint32 {
	return h*hashPrime ^ uint32(c)
}

// HashBytes computes the fuzzy digest of data.
func HashBytes(data []byte) (Digest, error) {
	if len(data) == 0 {
		return Digest{}, ErrEmptyInput
	}
	// Initial block-size guess: the smallest power-of-two multiple of
	// MinBlockSize whose expected signature length fits SpamsumLength.
	bs := uint32(MinBlockSize)
	for uint64(bs)*SpamsumLength < uint64(len(data)) {
		bs *= 2
	}
	for {
		d := hashAtBlockSize(data, bs)
		// If the signature came out too short the input has too few
		// trigger points at this block size; retry with a smaller one to
		// regain resolution, exactly as the reference implementation does.
		if bs > MinBlockSize && len(d.Sig1) < SpamsumLength/2 {
			bs /= 2
			continue
		}
		return d, nil
	}
}

// hashAtBlockSize computes both signatures of data in one pass using block
// sizes bs and 2*bs.
func hashAtBlockSize(data []byte, bs uint32) Digest {
	var (
		roll rollState
		s1   = make([]byte, 0, SpamsumLength)
		s2   = make([]byte, 0, SpamsumLength/2)
		h1   = uint32(hashInit)
		h2   = uint32(hashInit)
	)
	for _, c := range data {
		rh := roll.roll(c)
		h1 = sumHash(h1, c)
		h2 = sumHash(h2, c)
		if rh%bs == bs-1 {
			if len(s1) < SpamsumLength-1 {
				s1 = append(s1, b64[h1%64])
				h1 = hashInit
			}
		}
		if rh%(2*bs) == 2*bs-1 {
			if len(s2) < SpamsumLength/2-1 {
				s2 = append(s2, b64[h2%64])
				h2 = hashInit
			}
		}
	}
	// Capture the residue after the last trigger point.
	if roll.h1+roll.h2+roll.h3 != 0 {
		s1 = append(s1, b64[h1%64])
		s2 = append(s2, b64[h2%64])
	}
	return Digest{BlockSize: bs, Sig1: string(s1), Sig2: string(s2)}
}

// HashReader computes the fuzzy digest of everything readable from r.
// CTPH needs the total length before choosing a block size, so the reader
// is buffered in memory.
func HashReader(r io.Reader) (Digest, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Digest{}, fmt.Errorf("ssdeep: reading input: %w", err)
	}
	return HashBytes(data)
}

// HashFile computes the fuzzy digest of the named file.
func HashFile(path string) (Digest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Digest{}, fmt.Errorf("ssdeep: %w", err)
	}
	return HashBytes(data)
}

// HashString computes the fuzzy digest of s.
func HashString(s string) (Digest, error) {
	return HashBytes([]byte(s))
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
	// DistanceDLOracle and DistanceLevenshteinOracle are the
	// dynamic-programming forms of DistanceDL and DistanceLevenshtein:
	// the differential oracles the bit-parallel defaults are tested
	// against.
	DistanceDLOracle          DistanceFunc = editdist.OSADP
	DistanceLevenshteinOracle DistanceFunc = editdist.LevenshteinDP
)

// Compare returns the similarity score of two digests on the scale 0–100
// using the default Damerau–Levenshtein distance.
func Compare(a, b Digest) int {
	return CompareDistance(a, b, DistanceDL)
}

// CompareStrings parses two textual digests and compares them.
func CompareStrings(a, b string) (int, error) {
	da, err := Parse(a)
	if err != nil {
		return 0, err
	}
	db, err := Parse(b)
	if err != nil {
		return 0, err
	}
	return Compare(da, db), nil
}

// CompareDistance returns the similarity score of two digests using the
// supplied signature distance.
func CompareDistance(a, b Digest, dist DistanceFunc) int {
	if a.IsZero() || b.IsZero() {
		return 0
	}
	// Digests are only comparable when their block sizes overlap.
	if a.BlockSize != b.BlockSize && a.BlockSize != 2*b.BlockSize && 2*a.BlockSize != b.BlockSize {
		return 0
	}
	// Normalise long character runs before any comparison.
	a1, a2 := normalize(a.Sig1), normalize(a.Sig2)
	b1, b2 := normalize(b.Sig1), normalize(b.Sig2)

	if a.BlockSize == b.BlockSize && a1 == b1 && a2 == b2 {
		return 100
	}
	switch {
	case a.BlockSize == b.BlockSize:
		s1 := scoreStrings(a1, b1, a.BlockSize, dist)
		s2 := scoreStrings(a2, b2, 2*a.BlockSize, dist)
		if s2 > s1 {
			return s2
		}
		return s1
	case a.BlockSize == 2*b.BlockSize:
		return scoreStrings(a1, b2, a.BlockSize, dist)
	default: // 2*a.BlockSize == b.BlockSize
		return scoreStrings(a2, b1, b.BlockSize, dist)
	}
}

// scoreStrings maps the edit distance between two normalised signatures to
// the 0–100 similarity scale, with the reference implementation's guards:
// signatures must share a common substring of rollingWindow characters,
// and matches at small block sizes are capped so short signatures cannot
// claim high similarity.
func scoreStrings(s1, s2 string, blockSize uint32, dist DistanceFunc) int {
	if len(s1) > SpamsumLength || len(s2) > SpamsumLength {
		return 0
	}
	if len(s1) < rollingWindow || len(s2) < rollingWindow {
		return 0
	}
	if !hasCommonSubstring(s1, s2) {
		return 0
	}
	d := dist(s1, s2)
	// Scale the distance by the combined signature length (relative
	// distance), then project onto 0..100 and invert into a similarity.
	score := d * SpamsumLength / (len(s1) + len(s2))
	score = 100 * score / SpamsumLength
	if score >= 100 {
		return 0
	}
	score = 100 - score
	// Small block sizes can only arise from small inputs, for which a
	// high match score would overstate the evidence; cap accordingly.
	const uncapped = (99 + rollingWindow) / rollingWindow * MinBlockSize
	if blockSize < uncapped {
		m := len(s1)
		if len(s2) < m {
			m = len(s2)
		}
		capScore := int(blockSize) / MinBlockSize * m
		if score > capScore {
			score = capScore
		}
	}
	return score
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

// hasCommonSubstring reports whether s1 and s2 share any substring of
// length rollingWindow. The reference implementation requires this before
// scoring to suppress coincidental base64 overlap. Rolling 7-gram hashes
// keep it O(len(s1)*len(s2)) on 32-bit compares rather than byte compares.
func hasCommonSubstring(s1, s2 string) bool {
	if len(s1) < rollingWindow || len(s2) < rollingWindow {
		return false
	}
	var h1 [SpamsumLength]uint32
	n1 := gramHashes(s1, h1[:0])
	var h2 [SpamsumLength]uint32
	n2 := gramHashes(s2, h2[:0])
	for i := 0; i < len(n1); i++ {
		for j := 0; j < len(n2); j++ {
			if n1[i] == n2[j] &&
				s1[i:i+rollingWindow] == s2[j:j+rollingWindow] {
				return true
			}
		}
	}
	return false
}

// gramHashes appends the rolling hash of every rollingWindow-length
// substring of s to dst and returns it.
func gramHashes(s string, dst []uint32) []uint32 {
	var r rollState
	for i := 0; i < len(s); i++ {
		h := r.roll(s[i])
		if i >= rollingWindow-1 {
			dst = append(dst, h)
		}
	}
	return dst
}
