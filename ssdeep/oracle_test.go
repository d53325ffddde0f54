package ssdeep

import "testing"

// The buffered CTPH: the differential oracle the streaming Hasher, and
// so HashBytes, is tested against. It guesses the block size from
// len(data) and re-hashes the whole input at half the block size while
// the signature comes out too short, exactly as the reference
// implementation's retry loop does.

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
