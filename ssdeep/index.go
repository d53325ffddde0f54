package ssdeep

import (
	"math"
	"sort"
	"strconv"
	"sync"
)

// NoGroup marks an index entry that belongs to no owner group; grouped
// queries skip it.
const NoGroup = -1

// Index is a similarity-search structure over many fuzzy digests.
// Entries are bucketed by block size, and each bucket keeps an inverted
// index from rolling 7-gram hashes to entry ids: a map from gram hash to
// a slot in one slice of posting lists. Because a non-zero
// similarity score requires a shared 7-gram in the compared signature
// pair (the common-substring gate), every digest scoring above zero
// against the query shares at least one posting list with it — so a query
// touches only genuine candidates instead of the whole corpus.
//
// This is the digest-matching mode of the original ssdeep tool,
// generalised to an in-memory structure. Index serves two workloads:
// corpus-level queries (near-duplicate discovery, cross-class label
// auditing — the paper's CellRanger vs Cell-Ranger case — and ad-hoc
// lookups) via Query, and the classifier's profile featurisation via
// grouped queries: entries added with AddGroup carry an owner-group id,
// and QueryGroupsPrepared returns the best score per group in one pass
// over the candidates.
//
// An Index is safe for concurrent queries; Add/AddGroup must not run
// concurrently with queries or each other.
type Index struct {
	entries []Prepared
	// groups holds the owner-group id of each entry, NoGroup if none.
	groups []int32
	// buckets maps block size -> gram hash -> slot in lists. For each
	// entry both signatures are indexed: Sig1 under its block size and
	// Sig2 under twice that, mirroring how comparison pairs signatures.
	// Slots are indexes, not pointers, so the maps hold no pointers and a
	// distinct gram costs no heap object of its own.
	buckets map[uint32]map[uint32]int32
	// lists holds the posting list of every slot. Posting lists are
	// delta-encoded varints (see postings): entry ids are appended in
	// ascending order, so most postings cost one byte instead of four and
	// a bucket scan walks a dense byte run.
	lists []postings
	// exact maps the normalised digest string to ids, covering identical
	// digests whose signatures are too short to carry any 7-gram.
	exact map[string][]int32
	// scratchPool recycles per-query visited-entry stamps, keeping
	// candidate deduplication O(1) without serialising queries.
	scratchPool sync.Pool
}

// postings is one gram's compressed entry-id list: ascending ids stored
// as uvarint deltas from the previous id (the first delta is taken from
// -1, so id 0 encodes as 1). Appends come from AddGroup in strictly
// ascending entry order, which both guarantees positive deltas and makes
// same-entry deduplication a single comparison against last.
type postings struct {
	data []byte
	last int32
}

// add appends id unless it is already the most recent posting (the same
// entry posting the same gram hash twice within one signature).
func (p *postings) add(id int32) {
	if len(p.data) > 0 && p.last == id {
		return
	}
	delta := uint32(id - p.last)
	p.last = id
	for delta >= 0x80 {
		p.data = append(p.data, byte(delta)|0x80)
		delta >>= 7
	}
	p.data = append(p.data, byte(delta))
}

// each streams the decoded entry ids to consider in ascending order. The
// varint decode runs inline over the byte run — no scratch slice, no
// allocation, one sequential scan.
//
// fhc:hotpath
func (p *postings) each(consider func(int32)) {
	cur := int32(-1)
	var acc uint32
	var shift uint
	for _, b := range p.data {
		acc |= uint32(b&0x7f) << shift
		if b < 0x80 {
			cur += int32(acc)
			consider(cur)
			acc, shift = 0, 0
		} else {
			shift += 7
		}
	}
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		buckets: make(map[uint32]map[uint32]int32),
		exact:   make(map[string][]int32),
	}
}

// Add indexes d with no owner group and returns its id.
func (ix *Index) Add(d Digest) int {
	return ix.AddGroup(d, NoGroup)
}

// AddGroup indexes d under the owner group id group (NoGroup for none)
// and returns its entry id. Grouped queries report, per group, the best
// score over the entries owned by that group.
func (ix *Index) AddGroup(d Digest, group int) int {
	if group < NoGroup || group > math.MaxInt32 {
		panic("ssdeep: group id out of range")
	}
	id := int32(len(ix.entries))
	p := Prepare(d)
	ix.entries = append(ix.entries, p)
	ix.groups = append(ix.groups, int32(group))

	ix.post(p.BlockSize, p.grams1, id)
	ix.post(2*p.BlockSize, p.grams2, id)
	key := exactKey(p)
	ix.exact[key] = append(ix.exact[key], id)
	return int(id)
}

// post adds the hash of every 7-gram of one prepared signature (as
// computed by Prepare) to the bucket of size bs, opening a slot in lists
// for a hash the bucket has not seen. One posting per distinct gram per
// entry: ids only grow across calls, so a repeated gram hash within this
// signature is exactly a list whose last posting is already id, and
// postings.add drops it whatever the order of the grams.
func (ix *Index) post(bs uint32, grams []uint64, id int32) {
	if len(grams) == 0 {
		return
	}
	bucket := ix.buckets[bs]
	if bucket == nil {
		bucket = make(map[uint32]int32)
		ix.buckets[bs] = bucket
	}
	for _, g := range grams {
		h := uint32(g >> 32)
		slot, ok := bucket[h]
		if !ok {
			slot = int32(len(ix.lists))
			bucket[h] = slot
			ix.lists = append(ix.lists, postings{last: -1})
		}
		ix.lists[slot].add(id)
	}
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
func (ix *Index) QueryGroupsPrepared(q Prepared, numGroups int, dist DistanceFunc) []int {
	if numGroups <= 0 {
		return nil
	}
	out := make([]int, numGroups)
	if q.IsZero() {
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
	// a factor of two, which the bucket keys already encode.
	ix.collect(q.BlockSize, q.grams1, once)
	ix.collect(2*q.BlockSize, q.grams2, once)
	for _, id := range ix.exact[exactKey(q)] {
		once(id)
	}
}

// collect feeds every entry sharing a gram with the query signature in
// the given bucket to consider, decoding each compressed posting list in
// one sequential pass.
//
// fhc:hotpath
func (ix *Index) collect(bs uint32, grams []uint64, consider func(int32)) {
	bucket := ix.buckets[bs]
	if bucket == nil {
		return
	}
	for _, g := range grams {
		if slot, ok := bucket[uint32(g>>32)]; ok {
			ix.lists[slot].each(consider)
		}
	}
}
