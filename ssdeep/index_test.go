package ssdeep

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/editdist"
	"repro/internal/rng"
)

// family produces n related inputs: one base plus n-1 light mutations.
func family(t *testing.T, seed uint64, n, size int) []Digest {
	t.Helper()
	base := corpus(seed, size)
	out := make([]Digest, n)
	out[0] = mustHash(t, base)
	r := rng.New(seed ^ 0xfeed)
	for i := 1; i < n; i++ {
		mut := append([]byte(nil), base...)
		// A contiguous rewritten region grows with i: near-duplicates at
		// graded similarity, the way real file revisions behave.
		length := size / 12 * i
		start := r.Intn(len(mut) - length)
		r.Bytes(mut[start : start+length])
		out[i] = mustHash(t, mut)
	}
	return out
}

func TestIndexFindsFamily(t *testing.T) {
	fam := family(t, 1, 5, 30000)
	digests := fam
	// Unrelated noise entries.
	for i := 0; i < 30; i++ {
		digests = append(digests, mustHash(t, corpus(uint64(100+i), 25000)))
	}
	ix := NewIndex(digests, nil)
	matches := ix.Query(fam[0], 1)
	if len(matches) < len(fam) {
		t.Fatalf("query found %d matches, want >= %d (the family)", len(matches), len(fam))
	}
	if matches[0].ID != 0 || matches[0].Score != 100 {
		t.Fatalf("best match should be the query itself: %+v", matches[0])
	}
}

func TestIndexMatchesBruteForce(t *testing.T) {
	var digests []Digest
	for i := 0; i < 8; i++ {
		digests = append(digests, family(t, uint64(10+i), 3, 20000+i*3000)...)
	}
	ix := NewIndex(digests, nil)
	for qi, q := range digests {
		want := map[int]int{}
		for id, d := range digests {
			if s := compareDistanceOracle(q, d, editdist.OSADP); s > 0 {
				want[id] = s
			}
		}
		got := map[int]int{}
		for _, m := range ix.Query(q, 1) {
			got[m.ID] = m.Score
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: index found %d matches, brute force %d", qi, len(got), len(want))
		}
		for id, s := range want {
			if got[id] != s {
				t.Fatalf("query %d entry %d: index score %d, brute force %d", qi, id, got[id], s)
			}
		}
	}
}

func TestIndexMinScoreFilters(t *testing.T) {
	fam := family(t, 3, 6, 40000)
	ix := NewIndex(fam, nil)
	all := ix.Query(fam[0], 1)
	strict := ix.Query(fam[0], 90)
	if len(strict) >= len(all) {
		t.Fatalf("minScore did not filter: %d vs %d", len(strict), len(all))
	}
	for _, m := range strict {
		if m.Score < 90 {
			t.Fatalf("match below minScore: %+v", m)
		}
	}
}

func TestIndexSortedByScore(t *testing.T) {
	fam := family(t, 4, 8, 35000)
	ix := NewIndex(fam, nil)
	matches := ix.Query(fam[0], 1)
	for i := 1; i < len(matches); i++ {
		if matches[i-1].Score < matches[i].Score {
			t.Fatal("matches not sorted by descending score")
		}
	}
}

func TestIndexEmptyAndMisses(t *testing.T) {
	q := mustHash(t, corpus(50, 10000))
	if got := NewIndex(nil, nil).Query(q, 1); len(got) != 0 {
		t.Fatalf("empty index returned %d matches", len(got))
	}
	ix := NewIndex([]Digest{mustHash(t, corpus(51, 10000))}, nil)
	if got := ix.Query(q, 1); len(got) != 0 {
		t.Fatalf("unrelated query matched: %+v", got)
	}
}

func TestIndexIdenticalShortDigests(t *testing.T) {
	// Identical inputs too small for 7-gram signatures must still find
	// each other through the exact-match path.
	tiny := []byte("tiny")
	d := mustHash(t, tiny)
	ix := NewIndex([]Digest{d}, nil)
	matches := ix.Query(d, 1)
	if len(matches) != 1 || matches[0].ID != 0 || matches[0].Score != 100 {
		t.Fatalf("identical short digest not found: %+v", matches)
	}
}

func TestIndexRepeatedQueriesIndependent(t *testing.T) {
	fam := family(t, 6, 4, 30000)
	ix := NewIndex(fam, nil)
	first := ix.Query(fam[1], 1)
	second := ix.Query(fam[1], 1)
	if len(first) != len(second) {
		t.Fatalf("repeated query changed results: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("repeated query changed results at %d", i)
		}
	}
}

func TestExactKeyDistinguishesLargeBlockSizes(t *testing.T) {
	// Regression: exactKey used to encode the block size as string(rune(bs)),
	// which folds every block size beyond the valid rune range (3·2^19 and
	// up) onto U+FFFD, colliding keys across distinct block sizes.
	const bs1, bs2 = 3 << 19, 3 << 20
	a := Prepare(Digest{BlockSize: bs1, Sig1: "abc", Sig2: "de"})
	b := Prepare(Digest{BlockSize: bs2, Sig1: "abc", Sig2: "de"})
	if exactKey(a) == exactKey(b) {
		t.Fatalf("exact keys collide across block sizes %d and %d", bs1, bs2)
	}
	ix := NewIndex([]Digest{
		{BlockSize: bs1, Sig1: "abc", Sig2: "de"},
		{BlockSize: bs2, Sig1: "abc", Sig2: "de"},
	}, nil)
	if len(ix.exact) != 2 {
		t.Fatalf("exact map has %d buckets, want 2 (one per block size)", len(ix.exact))
	}
}

// groupedCorpus indexes families of related digests, each family owning
// one group, and returns the index with the digests and their group
// assignment.
func groupedCorpus(t *testing.T, nGroups, perGroup, size int) (*Index, []Digest, []int32) {
	t.Helper()
	var digests []Digest
	var groups []int32
	for g := 0; g < nGroups; g++ {
		for _, d := range family(t, uint64(20+g), perGroup, size+g*2000) {
			digests = append(digests, d)
			groups = append(groups, int32(g))
		}
	}
	return NewIndex(digests, groups), digests, groups
}

// queryGroups is a grouped query under the default scoring.
func queryGroups(ix *Index, d Digest, numGroups int) []int {
	return ix.QueryGroupsPrepared(Prepare(d), numGroups, DistanceDL)
}

func TestQueryGroupsMatchesBruteForce(t *testing.T) {
	for di, dp := range dpDistances {
		const nGroups = 5
		ix, digests, groups := groupedCorpus(t, nGroups, 4, 20000)
		for qi, q := range digests {
			want := make([]int, nGroups)
			for i, d := range digests {
				if s := compareDistanceOracle(q, d, dp); s > want[groups[i]] {
					want[groups[i]] = s
				}
			}
			got := ix.QueryGroupsPrepared(Prepare(q), nGroups, Distance(di))
			for g := range want {
				if got[g] != want[g] {
					t.Fatalf("query %d group %d: index score %d, brute force %d", qi, g, got[g], want[g])
				}
			}
		}
	}
}

func TestQueryGroupsEmptyGroups(t *testing.T) {
	q := mustHash(t, corpus(80, 20000))
	// Empty index: every group scores zero.
	for g, s := range queryGroups(NewIndex(nil, nil), q, 3) {
		if s != 0 {
			t.Fatalf("empty index scored %d for group %d", s, g)
		}
	}
	// Entries exist but only in group 0; groups 1 and 2 stay empty.
	ix := NewIndex([]Digest{q}, []int32{0})
	got := queryGroups(ix, q, 3)
	if got[0] != 100 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("queryGroups = %v, want [100 0 0]", got)
	}
	// Zero or negative groups requested: empty result, no panic.
	if got := queryGroups(ix, q, 0); len(got) != 0 {
		t.Fatalf("queryGroups with 0 groups returned %v", got)
	}
	if got := queryGroups(ix, q, -1); len(got) != 0 {
		t.Fatalf("queryGroups with -1 groups returned %v", got)
	}
	// A zero query digest scores nothing anywhere.
	for g, s := range queryGroups(ix, Digest{}, 3) {
		if s != 0 {
			t.Fatalf("zero digest scored %d for group %d", s, g)
		}
	}
}

func TestQueryGroupsShortSignatures(t *testing.T) {
	// Digests of tiny inputs carry no 7-gram; the exact-match path must
	// still credit the owning group, and only it, with 100.
	d := mustHash(t, []byte("tiny"))
	other := mustHash(t, []byte("x"))
	ix := NewIndex([]Digest{d, other}, []int32{1, 0})
	got := queryGroups(ix, d, 2)
	if got[0] != 0 || got[1] != 100 {
		t.Fatalf("queryGroups = %v, want [0 100]", got)
	}
}

func TestQueryGroupsIgnoresUngroupedEntries(t *testing.T) {
	d := mustHash(t, corpus(81, 20000))
	// No groups at all, and an explicit NoGroup entry beside a grouped one.
	for _, ix := range []*Index{
		NewIndex([]Digest{d}, nil),
		NewIndex([]Digest{d, mustHash(t, corpus(82, 20000))}, []int32{NoGroup, 1}),
	} {
		for g, s := range queryGroups(ix, d, 2) {
			if s != 0 {
				t.Fatalf("ungrouped entry scored %d for group %d", s, g)
			}
		}
	}
}

func TestIndexConcurrentQueries(t *testing.T) {
	const nGroups = 4
	ix, digests, _ := groupedCorpus(t, nGroups, 4, 25000)
	type result struct {
		matches []Match
		scores  []int
	}
	serial := make([]result, len(digests))
	for i, d := range digests {
		serial[i] = result{ix.Query(d, 1), queryGroups(ix, d, nGroups)}
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(digests))
	for i, d := range digests {
		wg.Add(1)
		go func(i int, d Digest) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				m := ix.Query(d, 1)
				g := queryGroups(ix, d, nGroups)
				if !reflect.DeepEqual(m, serial[i].matches) || !reflect.DeepEqual(g, serial[i].scores) {
					errs <- "concurrent query diverged from serial result"
					return
				}
			}
		}(i, d)
	}
	wg.Wait()
	close(errs)
	if msg, open := <-errs; open {
		t.Fatal(msg)
	}
}

// checkAgainstScan builds an index over digests and holds it to a scan
// of the raw entries for every query: Query must return exactly the
// entries compareDistanceOracle scores above zero, best first, and
// QueryGroupsPrepared each group's best oracle score under every
// distance. nil groups put every entry in NoGroup. Each posted key must
// hold a strictly ascending run of ids: one posting per entry.
func checkAgainstScan(t *testing.T, digests []Digest, groups []int32, queries []Digest) {
	t.Helper()
	ix := NewIndex(digests, groups)
	for k := range ix.keys {
		run := ix.ids[ix.offsets[k]:ix.offsets[k+1]]
		for i := range run {
			if i > 0 && run[i] <= run[i-1] {
				t.Errorf("key %#x posts ids %v, want a strictly ascending run", ix.keys[k], run)
				break
			}
		}
	}
	numGroups := 0
	for _, g := range groups {
		numGroups = max(numGroups, int(g)+1)
	}
	for _, q := range queries {
		var want []Match
		for id, e := range digests {
			if s := compareDistanceOracle(q, e, editdist.OSADP); s > 0 {
				want = append(want, Match{ID: id, Score: s})
			}
		}
		slices.SortStableFunc(want, func(a, b Match) int { return b.Score - a.Score })
		if got := ix.Query(q, 1); !slices.Equal(got, want) {
			t.Errorf("Query(%v) = %v, scan %v", q, got, want)
		}
		for di, dp := range dpDistances {
			want := make([]int, numGroups)
			for i, g := range groups {
				if g != NoGroup {
					want[g] = max(want[g], compareDistanceOracle(q, digests[i], dp))
				}
			}
			if got := ix.QueryGroupsPrepared(Prepare(q), numGroups, Distance(di)); !slices.Equal(got, want) {
				t.Errorf("distance %d: QueryGroupsPrepared(%v) = %v, scan %v", di, q, got, want)
			}
		}
	}
}

// TestNewIndexMatchesScan holds the constructor to a scan on the inputs
// at the edges of what it accepts: no entries, zero digests, entries in
// no group, gramless entries only the exact map finds, repeated (key,
// id) pairs, block sizes whose doubling wraps uint32, and more distinct
// buckets than one radix digit spans.
func TestNewIndexMatchesScan(t *testing.T) {
	sig := signature(1, 40)
	long := signature(2, 90)
	fam := family(t, 30, 3, 20000)

	// Entry i holds windows of one stream at block size i+MinBlockSize,
	// so block sizes k and 2k both occur and their signatures share grams.
	stream := signature(3, 200)
	var many []Digest
	var manyGroups []int32
	for i := 0; i < 80; i++ {
		many = append(many, Digest{
			BlockSize: uint32(i + MinBlockSize),
			Sig1:      stream[i%60:][:30],
			Sig2:      stream[i%60+10:][:20],
		})
		manyGroups = append(manyGroups, int32(i%5-1))
	}

	const top = 1 << 31
	cases := []struct {
		name    string
		digests []Digest
		groups  []int32
		queries []Digest
	}{
		{name: "empty", queries: []Digest{{}, fam[0]}},
		{
			name:    "zero digests and NoGroup entries",
			digests: []Digest{{}, fam[0], {}, fam[1], fam[2]},
			groups:  []int32{NoGroup, 0, 1, NoGroup, 2},
			queries: append([]Digest{{}}, fam...),
		},
		{name: "no groups", digests: fam, queries: fam},
		{
			name: "over-long signatures and duplicate digests",
			digests: []Digest{
				{BlockSize: 48, Sig1: long, Sig2: long},
				{BlockSize: 48, Sig1: long, Sig2: long},
				{BlockSize: 48, Sig1: long, Sig2: sig},
				{BlockSize: 48, Sig1: "abc", Sig2: "de"},
				{BlockSize: 48, Sig1: "abc", Sig2: "de"},
				{BlockSize: 96, Sig1: "abc", Sig2: "de"},
				fam[0], fam[0], fam[1],
			},
			groups: []int32{0, 1, 2, 0, 3, 1, 2, 0, NoGroup},
			queries: []Digest{
				{BlockSize: 48, Sig1: long, Sig2: long},
				{BlockSize: 48, Sig1: long, Sig2: sig},
				{BlockSize: 24, Sig1: "q", Sig2: long},
				{BlockSize: 48, Sig1: "abc", Sig2: "de"},
				fam[0], fam[1],
			},
		},
		{
			// 2*(top+24) wraps to 48, so the first entry's Sig2 posts
			// beside the second's Sig1. Block size 0 posts both signatures
			// in one bucket, so its shared grams repeat (key, id) pairs.
			name: "block sizes whose doubling wraps uint32",
			digests: []Digest{
				{BlockSize: top + 24, Sig1: sig[:20], Sig2: sig},
				{BlockSize: 48, Sig1: sig, Sig2: sig[5:]},
				{BlockSize: top, Sig1: sig, Sig2: sig},
				{BlockSize: 0, Sig1: sig, Sig2: sig},
				{BlockSize: 0, Sig1: sig[:30], Sig2: sig[10:]},
				{BlockSize: 1<<32 - 1, Sig1: sig, Sig2: sig},
			},
			groups: []int32{0, 1, 2, 3, 0, 1},
			queries: []Digest{
				{BlockSize: 48, Sig1: sig},
				{BlockSize: top + 24, Sig2: sig[3:]},
				{BlockSize: 0, Sig1: sig[2:]},
				{BlockSize: top, Sig1: sig, Sig2: sig},
				{BlockSize: 1<<32 - 1, Sig1: sig[1:], Sig2: sig},
			},
		},
		{
			name:    "more than 64 distinct block sizes",
			digests: many,
			groups:  manyGroups,
			queries: many,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkAgainstScan(t, c.digests, c.groups, c.queries)
		})
	}
}

// TestNewIndexAllocsPerEntryNotGram pins the build at no per-gram heap
// objects: every gram of every entry shares one array, and every
// posting lives in the CSR arrays. Signatures five times as long, with
// about fourteen times the grams, cost no extra allocation, and more
// entries cost none either.
func TestNewIndexAllocsPerEntryNotGram(t *testing.T) {
	build := func(n, sigLen int) float64 {
		digests := make([]Digest, n)
		for i := range digests {
			digests[i] = Digest{
				BlockSize: uint32(MinBlockSize << (i % 4)),
				Sig1:      signature(uint64(i), sigLen),
				Sig2:      signature(uint64(i+n), sigLen/2),
			}
		}
		groups := make([]int32, n)
		return testing.AllocsPerRun(5, func() { indexSink = NewIndex(digests, groups) })
	}
	base := build(64, 12)
	for _, c := range []struct{ n, sigLen int }{{64, 60}, {512, 12}, {512, 60}} {
		if got := build(c.n, c.sigLen); got != base {
			t.Errorf("%d entries with %d-byte signatures allocate %v times, 64 with 12-byte ones %v",
				c.n, c.sigLen, got, base)
		}
	}
}

// TestIndexGramHashesMatchRollState pins the gram hashes Prepare posts
// to rollState's, the rolling hash the digests are made with, over
// random signatures of every length up to SpamsumLength and over
// windows whose hashes collide.
func TestIndexGramHashesMatchRollState(t *testing.T) {
	r := rng.New(9)
	var sigs []string
	for n := 0; n <= SpamsumLength; n++ {
		raw := make([]byte, n)
		r.Bytes(raw)
		sigs = append(sigs, string(raw), signature(uint64(n), n))
	}
	for _, c := range gramCollisions(t, 3) {
		sigs = append(sigs, c[0]+c[1], "x"+c[1]+"!"+c[0])
	}
	for _, s := range sigs {
		n := normalize(s)
		grams := Prepare(Digest{BlockSize: MinBlockSize, Sig1: s}).grams1
		want := gramHashes(n, nil)
		got := make([]uint32, len(want))
		for _, g := range grams {
			got[uint32(g)] = uint32(g >> 32)
		}
		if len(grams) != len(want) || !slices.Equal(got, want) {
			t.Errorf("grams of %q hash %x, rollState %x", n, got, want)
		}
	}
}

func BenchmarkIndexQuery1000(b *testing.B) {
	r := rng.New(1)
	base := corpus(70, 30000)
	digests := make([]Digest, 1000)
	for i := range digests {
		mut := append([]byte(nil), base...)
		for j := 0; j < 50+i*5; j++ {
			mut[r.Intn(len(mut))] ^= byte(j)
		}
		var err error
		if digests[i], err = HashBytes(mut); err != nil {
			b.Fatal(err)
		}
	}
	ix := NewIndex(digests, nil)
	q, _ := HashBytes(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(q, 50)
	}
}

// indexSink keeps the benchmarked build from being elided.
var indexSink *Index

func BenchmarkIndexBuild(b *testing.B) {
	digests := make([]Digest, 256)
	for i := range digests {
		var err error
		digests[i], err = HashBytes(corpus(uint64(i), 20000))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink = NewIndex(digests, nil)
	}
}
