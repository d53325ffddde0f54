// Package editdist implements the string edit distances used by fuzzy-hash
// comparison: plain Levenshtein distance, the restricted
// Damerau–Levenshtein distance (optimal string alignment, exactly the
// recurrence given in Equation 1 of the reproduced paper), and the
// weighted edit distance used by the original spamsum/ssdeep
// implementation.
//
// Levenshtein and OSA are bit-parallel whenever one input fits a machine
// word (Myers 1999 for Levenshtein; Hyyrö 2003 for the OSA/Equation 1
// recurrence): the dynamic-programming column is packed into two 64-bit
// delta vectors and each text character costs a handful of word
// operations instead of a row of cell updates. ssdeep signatures are at
// most 64 characters, so fuzzy-digest comparison always takes this path.
// The classic dynamic programs are retained as LevenshteinDP and OSADP —
// the differential oracles the property and fuzz tests hold the
// bit-parallel forms against — and as the fallback for longer inputs.
//
// All functions operate on raw bytes; fuzzy digests are base64 text so byte
// granularity is exact.
//
// Concurrency contract: the distance functions are pure and safe to call
// concurrently; working vectors and rows are leased from internal
// sync.Pools, so steady-state calls allocate nothing.
package editdist

import "sync"

// wordBits is the longest pattern a single bit-parallel word covers.
const wordBits = 64

// peqTable is a pattern-match bit table: bits[c] has bit i set when
// pattern[i] == c. Tables are pooled and cleared selectively (only the
// pattern's own bytes) on release, so a lease touches O(len(pattern))
// memory, not the whole table.
type peqTable struct {
	bits [256]uint64
}

var peqPool = sync.Pool{New: func() any { return new(peqTable) }}

// intsPool recycles DP working rows for the dynamic-programming oracles;
// every row a caller reads is initialised before use, so stale contents
// are harmless.
var intsPool = sync.Pool{New: func() any { return new([]int) }}

// leaseInts returns a pooled []int of length n (contents arbitrary).
func leaseInts(n int) *[]int {
	p := intsPool.Get().(*[]int)
	if cap(*p) < n {
		*p = make([]int, n)
	}
	*p = (*p)[:n]
	return p
}

// Levenshtein returns the classic edit distance between a and b counting
// insertions, deletions and substitutions, each with unit cost. When
// either string fits a machine word the bit-parallel Myers algorithm is
// used; longer pairs fall back to LevenshteinDP.
//
// fhc:hotpath
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	// The pattern (bit-packed side) must fit one word; distances are
	// symmetric, so pack the shorter string.
	if len(b) < len(a) {
		a, b = b, a
	}
	if len(a) <= wordBits {
		return levenshteinBP(a, b)
	}
	return LevenshteinDP(a, b)
}

// levenshteinBP is Myers' bit-parallel Levenshtein: the DP column is two
// delta vectors (VP/VN) advanced one word operation sequence per text
// byte. len(p) must be in [1, wordBits].
//
// fhc:hotpath
func levenshteinBP(p, t string) int {
	m := len(p)
	pe := peqPool.Get().(*peqTable)
	for i := 0; i < m; i++ {
		pe.bits[p[i]] |= 1 << uint(i)
	}

	vp := ^uint64(0) >> uint(wordBits-m)
	vn := uint64(0)
	top := uint64(1) << uint(m-1)
	score := m
	for i := 0; i < len(t); i++ {
		pm := pe.bits[t[i]]
		d0 := (((pm & vp) + vp) ^ vp) | pm | vn
		hp := vn | ^(d0 | vp)
		hn := d0 & vp
		if hp&top != 0 {
			score++
		}
		if hn&top != 0 {
			score--
		}
		hp = hp<<1 | 1
		hn <<= 1
		vp = hn | ^(d0 | hp)
		vn = d0 & hp
	}

	for i := 0; i < m; i++ {
		pe.bits[p[i]] = 0
	}
	peqPool.Put(pe)
	return score
}

// LevenshteinDP is the single-row dynamic program, retained as the
// differential oracle for the bit-parallel path and as the fallback for
// inputs longer than a machine word.
//
// fhc:hotpath
func LevenshteinDP(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	// Single-row dynamic program: prev holds row i-1 to the right of j and
	// row i to the left, with diag carrying the overwritten d(i-1, j-1).
	lease := leaseInts(len(b) + 1)
	defer intsPool.Put(lease)
	prev := *lease
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		diag := prev[0] // d(i-1, 0)
		prev[0] = i     // d(i, 0)
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			next := min3(prev[j]+1, prev[j-1]+1, diag+cost)
			diag = prev[j]
			prev[j] = next
		}
	}
	return prev[len(b)]
}

// OSA returns the restricted Damerau–Levenshtein distance (optimal string
// alignment): insertions, deletions, substitutions and transpositions of
// two adjacent symbols, each with unit cost, where no substring may be
// edited more than once. This is precisely the recurrence in Equation 1 of
// the paper:
//
//	d(i,j) = min( d(i-1,j)+1,
//	              d(i,j-1)+1,
//	              d(i-1,j-1)+1[ai!=bj],
//	              d(i-2,j-2)+1[ai!=bj]  if ai=b(j-1) and a(i-1)=bj )
//
// When either string fits a machine word the bit-parallel Hyyrö
// algorithm is used; longer pairs fall back to OSADP.
//
// fhc:hotpath
func OSA(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	if len(a) <= wordBits {
		return osaBP(a, b)
	}
	return OSADP(a, b)
}

// osaBP is Hyyrö's bit-parallel restricted Damerau–Levenshtein (the
// OSA-compatible extension of Myers' algorithm): a transposition vector
// TR, derived from the previous column's D0 and pattern-match vector,
// joins the usual match vector in D0. len(p) must be in [1, wordBits].
//
// fhc:hotpath
func osaBP(p, t string) int {
	m := len(p)
	pe := peqPool.Get().(*peqTable)
	for i := 0; i < m; i++ {
		pe.bits[p[i]] |= 1 << uint(i)
	}

	vp := ^uint64(0) >> uint(wordBits-m)
	vn := uint64(0)
	d0 := uint64(0)
	pmOld := uint64(0)
	top := uint64(1) << uint(m-1)
	score := m
	for i := 0; i < len(t); i++ {
		pm := pe.bits[t[i]]
		tr := ((^d0 & pm) << 1) & pmOld
		d0 = (((pm & vp) + vp) ^ vp) | pm | vn | tr
		hp := vn | ^(d0 | vp)
		hn := d0 & vp
		if hp&top != 0 {
			score++
		}
		if hn&top != 0 {
			score--
		}
		hp = hp<<1 | 1
		hn <<= 1
		vp = hn | ^(d0 | hp)
		vn = d0 & hp
		pmOld = pm
	}

	for i := 0; i < m; i++ {
		pe.bits[p[i]] = 0
	}
	peqPool.Put(pe)
	return score
}

// OSADP is the three-row dynamic program for the Equation 1 recurrence,
// retained as the differential oracle for the bit-parallel path and as
// the fallback for inputs longer than a machine word.
//
// fhc:hotpath
func OSADP(a, b string) int {
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
	// Three rolling rows: two-above, one-above, current.
	lease := leaseInts(3 * (lb + 1))
	defer intsPool.Put(lease)
	buf := *lease
	row2 := buf[0 : lb+1]
	row1 := buf[lb+1 : 2*(lb+1)]
	row0 := buf[2*(lb+1):]
	for j := 0; j <= lb; j++ {
		row1[j] = j
	}
	for i := 1; i <= la; i++ {
		row0[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d := min3(row1[j]+1, row0[j-1]+1, row1[j-1]+cost)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if t := row2[j-2] + cost; t < d {
					d = t
				}
			}
			row0[j] = d
		}
		row2, row1, row0 = row1, row0, row2
	}
	return row1[lb]
}

// SpamsumCosts are the edit-operation weights used by the original
// spamsum implementation that ssdeep derives from: insertions and
// deletions cost 1, substitutions cost 3 and adjacent transpositions
// cost 5. They are exposed so the scoring ablation can compare the
// paper's unit-cost Damerau–Levenshtein scoring with the historic
// weighting.
type Costs struct {
	Insert, Delete, Substitute, Transpose int
}

// SpamsumCosts returns the historic spamsum weights.
func SpamsumCosts() Costs {
	return Costs{Insert: 1, Delete: 1, Substitute: 3, Transpose: 5}
}

// Weighted returns the restricted Damerau–Levenshtein distance between a
// and b under the given operation costs.
//
// fhc:hotpath
func Weighted(a, b string, c Costs) int {
	la, lb := len(a), len(b)
	if la == 0 {
		return lb * c.Insert
	}
	if lb == 0 {
		return la * c.Delete
	}
	lease := leaseInts(3 * (lb + 1))
	defer intsPool.Put(lease)
	buf := *lease
	row2 := buf[0 : lb+1]
	row1 := buf[lb+1 : 2*(lb+1)]
	row0 := buf[2*(lb+1):]
	for j := 0; j <= lb; j++ {
		row1[j] = j * c.Insert
	}
	for i := 1; i <= la; i++ {
		row0[0] = i * c.Delete
		for j := 1; j <= lb; j++ {
			d := row1[j] + c.Delete
			if t := row0[j-1] + c.Insert; t < d {
				d = t
			}
			if a[i-1] == b[j-1] {
				if t := row1[j-1]; t < d {
					d = t
				}
			} else {
				if t := row1[j-1] + c.Substitute; t < d {
					d = t
				}
			}
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] && a[i-1] != a[i-2] {
				if t := row2[j-2] + c.Transpose; t < d {
					d = t
				}
			}
			row0[j] = d
		}
		row2, row1, row0 = row1, row0, row2
	}
	return row1[lb]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
