package ssdeep

import "repro/internal/editdist"

// Prepared is a digest pre-processed for repeated comparison: signatures
// are normalised once and the rolling 7-gram hashes backing the
// common-substring gate are precomputed. Classifier feature extraction
// compares every sample against every class profile, so this preparation
// removes the dominant constant factor from the hot loop.
//
// Each gram is packed as hash<<32 | window start and each signature's
// grams are sorted, so the gate is a linear merge of two sorted lists
// that confirms hash matches on the bytes at the recorded starts.
type Prepared struct {
	// BlockSize mirrors Digest.BlockSize.
	BlockSize uint32

	sig1, sig2     string
	grams1, grams2 []uint64
}

// Prepare normalises d and precomputes its comparison state. Both
// signatures' sorted grams share one exactly sized array. A signature
// longer than SpamsumLength gets no grams: it scores 0 against anything,
// and the index finds identical digests through its exact map.
func Prepare(d Digest) Prepared {
	p := Prepared{
		BlockSize: d.BlockSize,
		sig1:      normalize(d.Sig1),
		sig2:      normalize(d.Sig2),
	}
	if n := gramCount(p.sig1) + gramCount(p.sig2); n > 0 {
		p.carveGrams(make([]uint64, n))
	}
	return p
}

// carveGrams computes the sorted grams of p's normalised signatures into
// the front of buf, Sig1's then Sig2's, and returns the rest of buf.
func (p *Prepared) carveGrams(buf []uint64) []uint64 {
	n1, n2 := gramCount(p.sig1), gramCount(p.sig2)
	p.grams1 = sortedGrams(p.sig1, buf[:0:n1])
	p.grams2 = sortedGrams(p.sig2, buf[n1:n1:n1+n2])
	return buf[n1+n2:]
}

// gramCount is the number of grams Prepare keeps for the normalised
// signature s.
func gramCount(s string) int {
	if len(s) > SpamsumLength {
		return 0
	}
	return max(0, len(s)-rollingWindow+1)
}

// sortedGrams appends the packed grams of s (see Prepared) to dst,
// insertion-sorted: a signature has at most SpamsumLength-rollingWindow+1
// grams, too few for a general sort to pay off. The hash is rollState's
// over each window; with the whole signature in hand, h1 and h2 drop
// the outgoing byte s[i-rollingWindow] directly instead of keeping a
// window ring, and h3's shifts already push it out.
func sortedGrams(s string, dst []uint64) []uint64 {
	if gramCount(s) == 0 {
		return dst
	}
	var h1, h2, h3 uint32
	for i := 0; i < len(s); i++ {
		in := uint32(s[i])
		h2 += rollingWindow*in - h1
		h1 += in
		if i >= rollingWindow {
			h1 -= uint32(s[i-rollingWindow])
		}
		h3 = h3<<5 ^ in
		if i < rollingWindow-1 {
			continue
		}
		g := uint64(h1+h2+h3)<<32 | uint64(i-rollingWindow+1)
		j := len(dst)
		dst = append(dst, g)
		for ; j > 0 && dst[j-1] > g; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = g
	}
	return dst
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
func ComparePrepared(a, b Prepared, dist Distance) int {
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

// scorePrepared maps the dist edit distance between two normalised
// signatures to the 0–100 similarity scale, with the reference
// implementation's guards: signatures longer than SpamsumLength score 0,
// signatures must share a common substring of rollingWindow characters,
// and matches at small block sizes are capped so short signatures cannot
// claim high similarity.
func scorePrepared(s1, s2 string, g1, g2 []uint64, blockSize uint32, dist Distance) int {
	if len(s1) > SpamsumLength || len(s2) > SpamsumLength {
		return 0
	}
	if len(s1) < rollingWindow || len(s2) < rollingWindow {
		return 0
	}
	if !commonGram(s1, s2, g1, g2) {
		return 0
	}
	var d int
	switch dist {
	case DistanceDL:
		d = editdist.OSA(s1, s2)
	case DistanceLevenshtein:
		d = editdist.Levenshtein(s1, s2)
	case DistanceSpamsum:
		d = editdist.Weighted(s1, s2, editdist.SpamsumCosts())
	default:
		panic("ssdeep: unknown Distance")
	}
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

// commonGram reports whether s1 and s2 share a 7-byte substring, by a
// merge intersection of their sorted grams (see Prepared). The reference
// implementation requires this before scoring to suppress coincidental
// base64 overlap. Within a run of equal hashes every pair is confirmed
// on the bytes, so colliding hashes of different substrings do not pass.
//
// fhc:hotpath
func commonGram(s1, s2 string, g1, g2 []uint64) bool {
	i, j := 0, 0
	for i < len(g1) && j < len(g2) {
		h := g1[i] >> 32
		switch h2 := g2[j] >> 32; {
		case h < h2:
			i++
		case h > h2:
			j++
		default:
			je := j
			for je < len(g2) && g2[je]>>32 == h {
				je++
			}
			for ; i < len(g1) && g1[i]>>32 == h; i++ {
				w := s1[uint32(g1[i]):][:rollingWindow]
				for _, g := range g2[j:je] {
					if w == s2[uint32(g):][:rollingWindow] {
						return true
					}
				}
			}
			j = je
		}
	}
	return false
}
