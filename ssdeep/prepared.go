package ssdeep

// Prepared is a digest pre-processed for repeated comparison: signatures
// are normalised once and the rolling 7-gram hashes backing the
// common-substring gate are precomputed. Classifier feature extraction
// compares every sample against every class profile, so this preparation
// removes the dominant constant factor from the hot loop.
type Prepared struct {
	// BlockSize mirrors Digest.BlockSize.
	BlockSize uint32

	sig1, sig2     string
	grams1, grams2 []uint32
}

// Prepare normalises d and precomputes its comparison state. Both
// signatures' gram hashes share one exactly sized array.
func Prepare(d Digest) Prepared {
	p := Prepared{
		BlockSize: d.BlockSize,
		sig1:      normalize(d.Sig1),
		sig2:      normalize(d.Sig2),
	}
	n1 := max(0, len(p.sig1)-rollingWindow+1)
	n2 := max(0, len(p.sig2)-rollingWindow+1)
	if n1+n2 > 0 {
		grams := make([]uint32, n1+n2)
		p.grams1 = gramHashes(p.sig1, grams[:0:n1])
		p.grams2 = gramHashes(p.sig2, grams[n1:n1])
	}
	return p
}

// IsZero reports whether p was prepared from the zero digest.
func (p Prepared) IsZero() bool {
	return p.BlockSize == 0 && p.sig1 == "" && p.sig2 == ""
}

// ComparePrepared returns the 0–100 similarity of two prepared digests
// under the supplied distance; CompareDistance is this call on the
// originating digests. Digests compare only when their block sizes are
// equal or differ by a factor of two.
//
// fhc:hotpath
func ComparePrepared(a, b Prepared, dist DistanceFunc) int {
	if a.IsZero() || b.IsZero() {
		return 0
	}
	if a.BlockSize != b.BlockSize && a.BlockSize != 2*b.BlockSize && 2*a.BlockSize != b.BlockSize {
		return 0
	}
	if a.BlockSize == b.BlockSize && a.sig1 == b.sig1 && a.sig2 == b.sig2 {
		return 100
	}
	switch {
	case a.BlockSize == b.BlockSize:
		s1 := scorePrepared(a.sig1, b.sig1, a.grams1, b.grams1, a.BlockSize, dist)
		s2 := scorePrepared(a.sig2, b.sig2, a.grams2, b.grams2, 2*a.BlockSize, dist)
		if s2 > s1 {
			return s2
		}
		return s1
	case a.BlockSize == 2*b.BlockSize:
		return scorePrepared(a.sig1, b.sig2, a.grams1, b.grams2, a.BlockSize, dist)
	default:
		return scorePrepared(a.sig2, b.sig1, a.grams2, b.grams1, b.BlockSize, dist)
	}
}

// scorePrepared maps the edit distance between two normalised signatures
// to the 0–100 similarity scale, with the reference implementation's
// guards: signatures longer than SpamsumLength score 0, signatures must
// share a common substring of rollingWindow characters, and matches at
// small block sizes are capped so short signatures cannot claim high
// similarity.
func scorePrepared(s1, s2 string, g1, g2 []uint32, blockSize uint32, dist DistanceFunc) int {
	if len(s1) > SpamsumLength || len(s2) > SpamsumLength {
		return 0
	}
	if len(s1) < rollingWindow || len(s2) < rollingWindow {
		return 0
	}
	if !commonGram(s1, s2, g1, g2) {
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

// commonGram reports whether s1 and s2 share a 7-byte substring, using
// precomputed rolling-gram hashes for both sides. The reference
// implementation requires this before scoring to suppress coincidental
// base64 overlap; a hash match is confirmed on the bytes, so colliding
// hashes of different substrings do not pass.
func commonGram(s1, s2 string, g1, g2 []uint32) bool {
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
