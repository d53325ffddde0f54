package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
	"math/rand/v2"
)

const (
	mib      = 1 << 20
	nonceLen = 16
	// poolSize is the random pool bodies take their tails from: large
	// enough that windows of a 1 MiB tail seldom overlap within a run.
	poolSize = 64 * mib
)

// Body streams. Each generated body's nonce names its stream and index,
// so no two bodies of one run share bytes, and each stream draws its
// base binaries and pool windows from its own random sequence.
const (
	kindCold byte = 1 + iota
	kindFresh
	kindSetup
	kindTraceCold
	kindTraceFresh
)

// RNG streams for the draws that are not bodies.
const (
	streamBases uint64 = 1 + iota
	streamClient
	streamTraceSizes
)

// newPool fills n seeded pseudo-random bytes. Bodies take their
// high-entropy tails from windows of it, so building a request costs the
// client a copy, not a random-number generator.
func newPool(seed uint64, n int) []byte {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], seed)
	copy(key[8:], "fhcbench pool")
	p := make([]byte, n)
	_, _ = rand.NewChaCha8(key).Read(p) // ChaCha8.Read never fails
	return p
}

// body is one upload: a corpus binary, then a window of the pool, then a
// nonce. ELF readers locate every structure by offset and the section
// header table ends the generated images, so bytes appended after it
// leave the binary intact while giving the CTPH and strings passes
// incompressible input, as a large data section would. Native
// working-set binaries are bodies with no tail and no nonce.
type body struct {
	name  string // executable name, sent as ?exe=
	base  []byte
	tail  []byte
	nonce []byte
}

func (b body) size() int { return len(b.base) + len(b.tail) + len(b.nonce) }

func (b body) reader() io.Reader {
	return io.MultiReader(bytes.NewReader(b.base), bytes.NewReader(b.tail), bytes.NewReader(b.nonce))
}

func (b body) bytes() []byte {
	out := make([]byte, 0, b.size())
	out = append(out, b.base...)
	out = append(out, b.tail...)
	return append(out, b.nonce...)
}

func (b body) sum() [sha256.Size]byte {
	h := sha256.New()
	h.Write(b.base)
	h.Write(b.tail)
	h.Write(b.nonce)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// gen builds bodies from a seed. Every body is a pure function of
// (seed, kind, index, size), so any client may build any body in any
// order and a post-run check can rebuild it.
type gen struct {
	seed  uint64
	bases [][]byte
	names []string
	pool  []byte
}

// native returns working-set binary i as it sits in the corpus.
func (g *gen) native(i int) body {
	return body{name: g.names[i], base: g.bases[i]}
}

// body returns body index of stream kind, size bytes long; a size below
// its base binary's own length grows to fit the base and the nonce.
func (g *gen) body(kind byte, index uint64, size int) body {
	r := rand.New(rand.NewPCG(g.seed, uint64(kind)<<56|index))
	i := r.IntN(len(g.bases))
	b := body{name: g.names[i], base: g.bases[i], nonce: make([]byte, nonceLen)}
	tail := max(size-len(b.base)-nonceLen, 0)
	off := r.IntN(len(g.pool) - tail + 1)
	b.tail = g.pool[off : off+tail]
	binary.LittleEndian.PutUint64(b.nonce, uint64(kind)<<56|index)
	binary.LittleEndian.PutUint64(b.nonce[8:], g.seed)
	return b
}

// logUniform draws a size whose logarithm is uniform over [lo, hi].
func logUniform(r *rand.Rand, lo, hi int) int {
	return int(float64(lo) * math.Pow(float64(hi)/float64(lo), r.Float64()))
}

// zipfExponent shapes the prolog working set: a few applications take
// most submissions and a long tail is run now and then. The value is an
// assumption, not fitted to a job trace.
const zipfExponent = 1.1

// newZipf draws ranks 0..n-1 with P(k) proportional to (k+1)^-s.
func newZipf(r *rand.Rand, n int) *rand.Zipf {
	return rand.NewZipf(r, zipfExponent, 1, uint64(n-1))
}

// Prolog-mix shape: the share of never-seen submissions and their size
// range. Both are assumptions, not taken from a job trace; only "repeats
// dominate" has a source. The 1 MiB cap keeps every upload well inside
// the router's 100 ms hedge delay: multi-MiB bodies outlast it, and a
// hedge doubles an upload's work at random, run to run.
const (
	freshShare = 0.10
	freshMin   = 64 << 10
	freshMax   = mib
)
