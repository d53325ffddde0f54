// Package rng provides a small, deterministic pseudo-random number source
// used everywhere randomness is needed in this repository: corpus genome
// generation, train/test splits, bootstrap sampling and feature
// sub-sampling in the Random Forest.
//
// The implementation is SplitMix64 (Steele, Lea, Flood: "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014). It is chosen over
// math/rand because its output is stable across Go releases and because
// independent child streams can be derived cheaply from string labels,
// which keeps every experiment bit-for-bit reproducible from a single
// top-level seed.
//
// Concurrency contract: a *Source is NOT safe for concurrent use — it is
// a tiny mutable state machine. Parallel workers must each derive their
// own child stream (Child with a distinct label or index) rather than
// share one source; that is also what keeps parallel runs deterministic
// regardless of scheduling.
package rng

import "math"

// Source is a deterministic SplitMix64 random number generator.
// The zero value is a valid source seeded with 0; most callers should use
// New to make the seed explicit.
type Source struct {
	seed  uint64 // creation seed; lineage identity for Child derivation
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{seed: seed, state: seed}
}

// golden is the SplitMix64 increment (2^64 / phi, rounded to odd).
const golden = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method, debiased.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + hiPart + (t >> 32)
	return hi, lo
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1 using the Box–Muller transform.
func (s *Source) NormFloat64() float64 {
	u1 := s.Float64()
	if u1 == 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// IntRange returns a uniformly distributed int in [lo, hi]. It panics if
// hi < lo.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange called with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Perm returns a uniformly random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher–Yates shuffle over n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Bytes fills p with pseudo-random bytes.
func (s *Source) Bytes(p []byte) {
	var v uint64
	for i := range p {
		if i%8 == 0 {
			v = s.Uint64()
		}
		p[i] = byte(v)
		v >>= 8
	}
}

// Child derives an independent Source from s's seed lineage and a string
// label. Two children with different labels produce unrelated streams, and
// deriving a child does not disturb the parent's sequence. This is the
// backbone of reproducible per-class / per-version corpus generation.
func (s *Source) Child(label string) *Source {
	h := fnv64(label)
	// Mix the parent's *creation seed* (not the evolving stream) so that
	// child identity depends only on lineage, never on call order.
	return New(mix(s.seed, h))
}

// ChildN derives an independent Source from an integer label.
func (s *Source) ChildN(n uint64) *Source {
	return New(mix(s.seed, n*0x9e3779b97f4a7c15+0x2545f4914f6cdd1d))
}

// fnv64 is the FNV-1a 64-bit hash of label.
func fnv64(label string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	return h
}

// mix combines two 64-bit values into a well-distributed seed.
func mix(a, b uint64) uint64 {
	z := a ^ (b + golden + (a << 6) + (a >> 2))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Pick returns a uniformly chosen element of choices. It panics if choices
// is empty.
func Pick[T any](s *Source, choices []T) T {
	return choices[s.Intn(len(choices))]
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. If k >= n it returns a permutation of all n indices.
func (s *Source) Sample(n, k int) []int {
	if k >= n {
		return s.Perm(n)
	}
	p := s.Perm(n)
	return p[:k]
}
