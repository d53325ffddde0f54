package editdist

// The unrestricted distance and the unit weights: references the
// property tests hold OSA and Weighted against. Neither has a caller
// outside the tests.

// DamerauLevenshtein returns the unrestricted Damerau–Levenshtein distance,
// which additionally allows edits to substrings involved in an earlier
// transposition. It uses the classic alphabet-table dynamic program
// (Damerau 1964 / Lowrance–Wagner); it bounds OSA from below.
func DamerauLevenshtein(a, b string) int {
	if a == b {
		return 0
	}
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	inf := la + lb
	// h is the (la+2) x (lb+2) table with a sentinel row/column, stored
	// row-major.
	stride := lb + 2
	h := make([]int, (la+2)*stride)
	h[0] = inf
	for i := 0; i <= la; i++ {
		h[(i+1)*stride] = inf
		h[(i+1)*stride+1] = i
	}
	for j := 0; j <= lb; j++ {
		h[j+1] = inf
		h[stride+j+1] = j
	}
	var da [256]int // last row where each byte value was seen in a
	for i := 1; i <= la; i++ {
		db := 0 // last column in b matching a[i-1] seen so far in this row
		for j := 1; j <= lb; j++ {
			i1 := da[b[j-1]]
			j1 := db
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
				db = j
			}
			d := min3(h[i*stride+j]+cost, h[(i+1)*stride+j]+1, h[i*stride+j+1]+1)
			if t := h[i1*stride+j1] + (i - i1 - 1) + 1 + (j - j1 - 1); t < d {
				d = t
			}
			h[(i+1)*stride+j+1] = d
		}
		da[a[i-1]] = i
	}
	return h[(la+1)*stride+lb+1]
}

// UnitCosts returns unit weights for every operation, under which Weighted
// coincides with OSA.
func UnitCosts() Costs {
	return Costs{Insert: 1, Delete: 1, Substitute: 1, Transpose: 1}
}
