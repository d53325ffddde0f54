package ssdeep

import (
	"testing"

	"repro/internal/editdist"
)

// The buffered CTPH: the differential oracle the streaming Hasher, and
// so HashBytes, is tested against. It guesses the block size from
// len(data) and re-hashes the whole input at half the block size while
// the signature comes out too short, exactly as the reference
// implementation's retry loop does.

// roll absorbs c into the rolling hash one byte at a time, through the
// window ring, and returns the hash.
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

// hashBytesOracle computes the fuzzy digest of data.
func hashBytesOracle(data []byte) (Digest, error) {
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

func mustOracle(t *testing.T, data []byte) Digest {
	t.Helper()
	d, err := hashBytesOracle(data)
	if err != nil {
		t.Fatalf("hashBytesOracle: %v", err)
	}
	return d
}

// The string compare: the differential oracle ComparePrepared, and so
// CompareDistance and every Index query, is tested against. It
// re-normalises both digests on every call, finds a common substring by
// comparing bytes, with no precomputed gram hashes, and scores each
// Distance with its dynamic program, not the bit-parallel production
// implementation.

// distanceFunc measures the dissimilarity of two signature strings.
type distanceFunc func(a, b string) int

// dpDistances holds each Distance's dynamic program, indexed by the
// Distance: the function compareDistanceOracle scores it with.
var dpDistances = [...]distanceFunc{
	DistanceDL:          editdist.OSADP,
	DistanceLevenshtein: editdist.LevenshteinDP,
	DistanceSpamsum: func(a, b string) int {
		return editdist.Weighted(a, b, editdist.SpamsumCosts())
	},
}

// compareDistanceOracle returns the similarity score of two digests
// using the supplied signature distance.
func compareDistanceOracle(a, b Digest, dist distanceFunc) int {
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
// signatures longer than SpamsumLength score 0, signatures must share a
// common substring of rollingWindow characters, and matches at small
// block sizes are capped so short signatures cannot claim high
// similarity.
func scoreStrings(s1, s2 string, blockSize uint32, dist distanceFunc) int {
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
	score := d * SpamsumLength / (len(s1) + len(s2))
	score = 100 * score / SpamsumLength
	if score >= 100 {
		return 0
	}
	score = 100 - score
	const uncapped = (99 + rollingWindow) / rollingWindow * MinBlockSize
	if blockSize < uncapped {
		m := min(len(s1), len(s2))
		if capScore := int(blockSize) / MinBlockSize * m; score > capScore {
			score = capScore
		}
	}
	return score
}

// hasCommonSubstring reports whether s1 and s2 share any substring of
// length rollingWindow, by direct byte comparison of every pair.
func hasCommonSubstring(s1, s2 string) bool {
	for i := 0; i+rollingWindow <= len(s1); i++ {
		for j := 0; j+rollingWindow <= len(s2); j++ {
			if s1[i:i+rollingWindow] == s2[j:j+rollingWindow] {
				return true
			}
		}
	}
	return false
}

// The quadratic gate: the oracle the merge in commonGram is tested
// against. It hashes every window of both signatures in position order
// and compares every hash pair, confirming a match on the bytes.

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

// commonGramOracle reports whether s1 and s2 share a 7-byte substring by
// checking every pair of equal gram hashes on the bytes.
func commonGramOracle(s1, s2 string) bool {
	g1, g2 := gramHashes(s1, nil), gramHashes(s2, nil)
	for i := 0; i < len(g1); i++ {
		h := g1[i]
		for j := 0; j < len(g2); j++ {
			if h == g2[j] && s1[i:i+rollingWindow] == s2[j:j+rollingWindow] {
				return true
			}
		}
	}
	return false
}
