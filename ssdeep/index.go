package ssdeep

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// NoGroup marks an index entry that belongs to no owner group; grouped
// queries skip it.
const NoGroup = -1

// Index is a similarity-search structure over many fuzzy digests. Every
// 7-gram of every entry is posted under a 64-bit key, bucket<<32 | gram
// hash, whose bucket is the block size the signature was computed at:
// Sig1 posts under BlockSize and Sig2 under twice that, mirroring how
// comparison pairs signatures. Because a non-zero similarity score
// requires a shared 7-gram in the compared signature pair (the
// common-substring gate), every digest scoring above zero against the
// query shares at least one posted key with it, so a query touches only
// genuine candidates instead of the whole corpus.
//
// This is the digest-matching mode of the original ssdeep tool,
// generalised to an in-memory structure. Index serves two workloads:
// corpus-level queries (near-duplicate discovery, cross-class label
// auditing — the paper's CellRanger vs Cell-Ranger case — and ad-hoc
// lookups) via Query, and the classifier's profile featurisation via
// grouped queries: each entry may carry an owner-group id, and
// QueryGroupsPrepared returns the best score per group in one pass over
// the candidates.
//
// NewIndex builds an Index in one pass and nothing modifies it after, so
// an Index is safe for concurrent queries.
type Index struct {
	entries []Prepared
	// groups holds the owner-group id of each entry, NoGroup if none;
	// nil when NewIndex was given none.
	groups []int32
	// The posting lists in compressed sparse row form: keys holds the
	// distinct posted keys, and the ascending ids of the entries posting
	// keys[k] are ids[offsets[k]:offsets[k+1]]. slots is an open-addressing
	// table over keys, linear probing from slotHash: a slot holds k+1, or
	// 0 when empty. It is sized once and never rehashed.
	keys    []uint64
	offsets []int32
	ids     []int32
	slots   []int32
	shift   uint8
	// exact maps the normalised digest string to the ids of entries that
	// post no gram at all: identical digests whose signatures are too
	// short (or too long) to carry a 7-gram. An entry that posts a gram
	// needs no entry here, since an identical query posts the same key.
	exact map[string][]int32
	// scratchPool recycles per-query visited-entry stamps, keeping
	// candidate deduplication O(1) without serialising queries.
	scratchPool sync.Pool
}

// NewIndex indexes digests; an entry's id is its position in digests.
// groups gives each entry's owner group (NoGroup for none), or is nil
// when no entry has one. Grouped queries report, per group, the best
// score over the entries owned by that group. The index keeps a copy of
// groups, and the grams of all entries share one exactly sized array.
func NewIndex(digests []Digest, groups []int32) *Index {
	if groups != nil && len(groups) != len(digests) {
		panic("ssdeep: NewIndex needs one group per digest")
	}
	if len(digests) > math.MaxInt32 {
		panic("ssdeep: too many index entries")
	}
	for _, g := range groups {
		if g < NoGroup {
			panic("ssdeep: group id out of range")
		}
	}
	ix := &Index{
		entries: make([]Prepared, len(digests)),
		groups:  slices.Clone(groups),
		exact:   make(map[string][]int32),
	}
	n := 0
	for i, d := range digests {
		p := &ix.entries[i]
		*p = Prepared{BlockSize: d.BlockSize, sig1: normalize(d.Sig1), sig2: normalize(d.Sig2)}
		n += gramCount(p.sig1) + gramCount(p.sig2)
	}
	grams := make([]uint64, n)
	keys := make([]uint64, 0, n)
	ids := make([]int32, 0, n)
	for i := range ix.entries {
		p := &ix.entries[i]
		grams = p.carveGrams(grams)
		if len(p.grams1)+len(p.grams2) == 0 {
			key := exactKey(*p)
			ix.exact[key] = append(ix.exact[key], int32(i))
			continue
		}
		for _, g := range p.grams1 {
			keys = append(keys, uint64(p.BlockSize)<<32|g>>32)
			ids = append(ids, int32(i))
		}
		for _, g := range p.grams2 {
			keys = append(keys, uint64(2*p.BlockSize)<<32|g>>32)
			ids = append(ids, int32(i))
		}
	}
	// Ids were emitted in ascending order and the sort is stable, so each
	// key's ids come out ascending and a repeated (key, id) pair is
	// adjacent.
	keys, ids = radixSort(keys, ids)
	ix.build(keys, ids)
	return ix
}

// build writes the sorted (key, id) pairs as the CSR arrays, dropping
// repeated pairs, and fills the slot table.
func (ix *Index) build(keys []uint64, ids []int32) {
	distinct, unique := 0, 0
	for i := range keys {
		if i == 0 || keys[i] != keys[i-1] {
			distinct++
		} else if ids[i] == ids[i-1] {
			continue
		}
		unique++
	}
	if unique > math.MaxInt32 {
		panic("ssdeep: too many index postings")
	}
	if distinct == 0 {
		return
	}
	ix.keys = make([]uint64, 0, distinct)
	ix.offsets = make([]int32, 0, distinct+1)
	ix.ids = make([]int32, 0, unique)
	for i := range keys {
		if i == 0 || keys[i] != keys[i-1] {
			ix.keys = append(ix.keys, keys[i])
			ix.offsets = append(ix.offsets, int32(len(ix.ids)))
		} else if ids[i] == ids[i-1] {
			continue
		}
		ix.ids = append(ix.ids, ids[i])
	}
	ix.offsets = append(ix.offsets, int32(len(ix.ids)))

	// At least half again as many slots as keys keeps probe runs short;
	// a power of two lets slotHash take the top bits of one multiply.
	size := 1 << bits.Len(uint(distinct+distinct/2))
	ix.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	ix.slots = make([]int32, size)
	mask := size - 1
	for k, key := range ix.keys {
		h := ix.slotHash(key)
		for ix.slots[h] != 0 {
			h = (h + 1) & mask
		}
		ix.slots[h] = int32(k + 1)
	}
}

// slotHash is the home slot of key: Fibonacci hashing, the top bits of
// key times 2^64 over the golden ratio.
func (ix *Index) slotHash(key uint64) int {
	return int(key * 0x9e3779b97f4a7c15 >> ix.shift)
}

// radixBits is the digit width of radixSort: a digit's 2,048 counters
// stay in cache, and the 32-bit hash half takes three passes.
const radixBits = 11

// radixSort sorts keys ascending, moving each id with its key, by a
// least-significant-digit radix sort. It is stable, and it skips every
// digit that all keys share: the high bits of the bucket half are the
// same for every key of a realistic corpus. It returns the sorted
// slices, which may be scratch buffers rather than the inputs.
func radixSort(keys []uint64, ids []int32) ([]uint64, []int32) {
	const radix = 1 << radixBits
	keys2, ids2 := make([]uint64, len(keys)), make([]int32, len(ids))
	for d := uint(0); d < 64; d += radixBits {
		var c [radix]int
		for _, k := range keys {
			c[k>>d&(radix-1)]++
		}
		if len(keys) == 0 || c[keys[0]>>d&(radix-1)] == len(keys) {
			continue
		}
		sum := 0
		for v, n := range c {
			c[v] = sum
			sum += n
		}
		for i, k := range keys {
			v := k >> d & (radix - 1)
			keys2[c[v]], ids2[c[v]] = k, ids[i]
			c[v]++
		}
		keys, keys2 = keys2, keys
		ids, ids2 = ids2, ids
	}
	return keys, ids
}

// exactKey renders the comparison-relevant state of a digest as a map
// key. The block size is encoded in decimal: converting it through
// string(rune(...)) would fold every block size beyond the valid rune
// range (3·2^19 and up) onto U+FFFD, colliding keys across distinct
// block sizes. Signatures never contain NUL, so "\x00" separates
// unambiguously.
func exactKey(p Prepared) string {
	return strconv.FormatUint(uint64(p.BlockSize), 10) + "\x00" + p.sig1 + "\x00" + p.sig2
}

// queryScratch is the per-query candidate-deduplication state: an entry
// is considered at most once per query when its stamp equals the query's
// mark.
type queryScratch struct {
	stamp []uint32
	mark  uint32
}

// scratch leases deduplication state sized to the current entry count.
// Callers return it with ix.scratchPool.Put when the query is done.
func (ix *Index) scratch() *queryScratch {
	s, _ := ix.scratchPool.Get().(*queryScratch)
	if s == nil {
		s = &queryScratch{}
	}
	if len(s.stamp) < len(ix.entries) {
		s.stamp = make([]uint32, len(ix.entries))
		s.mark = 0
	}
	s.mark++
	if s.mark == 0 { // mark wrapped: stamps are ambiguous, reset them
		clear(s.stamp)
		s.mark = 1
	}
	return s
}

// Match is one similarity-search hit.
type Match struct {
	// ID identifies the indexed digest.
	ID int
	// Score is the 0-100 similarity to the query.
	Score int
}

// Query returns every indexed digest whose similarity to d is at least
// minScore (> 0), sorted by descending score then ascending id, using the
// default Damerau–Levenshtein scoring.
func (ix *Index) Query(d Digest, minScore int) []Match {
	q := Prepare(d)
	if minScore < 1 {
		minScore = 1
	}
	s := ix.scratch()
	defer ix.scratchPool.Put(s)

	var out []Match
	ix.visit(q, s, func(id int32) {
		if score := ComparePrepared(q, ix.entries[id], DistanceDL); score >= minScore {
			out = append(out, Match{ID: int(id), Score: score})
		}
	})

	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// QueryGroupsPrepared returns, for each owner group in [0, numGroups),
// the best similarity under dist between the prepared query q and any
// entry of that group. Groups with no entry sharing a 7-gram (or exact
// match) with q score 0 — exactly what a full scan would report, since
// the common-substring gate zeroes every skipped pair. The hot path of
// classifier featurisation: one call per (sample, feature kind) replaces
// a scan of every training digest of every class, and the digest is
// prepared once instead of once per class.
func (ix *Index) QueryGroupsPrepared(q Prepared, numGroups int, dist Distance) []int {
	if numGroups <= 0 {
		return nil
	}
	out := make([]int, numGroups)
	if q.IsZero() || ix.groups == nil {
		return out
	}
	s := ix.scratch()
	defer ix.scratchPool.Put(s)

	ix.visit(q, s, func(id int32) {
		g := ix.groups[id]
		if g < 0 || int(g) >= numGroups || out[g] == 100 {
			return
		}
		if score := ComparePrepared(q, ix.entries[id], dist); score > out[g] {
			out[g] = score
		}
	})
	return out
}

// visit feeds every candidate entry for q — gram-sharing entries in the
// comparable block-size buckets plus exact-digest matches — to consider,
// each at most once.
//
// fhc:hotpath
func (ix *Index) visit(q Prepared, s *queryScratch, consider func(int32)) {
	once := func(id int32) {
		if s.stamp[id] == s.mark {
			return
		}
		s.stamp[id] = s.mark
		consider(id)
	}
	// Candidate generation: pair each query signature with the bucket it
	// would be compared against. Sig1 lives at BlockSize, Sig2 at twice
	// that; comparison crosses buckets exactly when block sizes differ by
	// a factor of two, which the bucket half of the key already encodes.
	ix.collect(q.BlockSize, q.grams1, once)
	ix.collect(2*q.BlockSize, q.grams2, once)
	// A digest identical to q posts q's grams, so only a gramless q can
	// have an exact match the posting lists miss.
	if len(q.grams1)+len(q.grams2) == 0 {
		for _, id := range ix.exact[exactKey(q)] {
			once(id)
		}
	}
}

// collect feeds every entry sharing a gram with the query signature in
// the given bucket to consider, walking each gram's run of ids.
//
// fhc:hotpath
func (ix *Index) collect(bs uint32, grams []uint64, consider func(int32)) {
	if len(ix.slots) == 0 {
		return
	}
	mask := len(ix.slots) - 1
	for _, g := range grams {
		key := uint64(bs)<<32 | g>>32
		for h := ix.slotHash(key); ix.slots[h] != 0; h = (h + 1) & mask {
			if k := ix.slots[h] - 1; ix.keys[k] == key {
				for _, id := range ix.ids[ix.offsets[k]:ix.offsets[k+1]] {
					consider(id)
				}
				break
			}
		}
	}
}
