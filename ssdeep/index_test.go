package ssdeep

import (
	"reflect"
	"sync"
	"testing"

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
	ix := NewIndex()
	fam := family(t, 1, 5, 30000)
	for _, d := range fam {
		ix.Add(d)
	}
	// Unrelated noise entries.
	for i := 0; i < 30; i++ {
		ix.Add(mustHash(t, corpus(uint64(100+i), 25000)))
	}
	matches := ix.Query(fam[0], 1)
	if len(matches) < len(fam) {
		t.Fatalf("query found %d matches, want >= %d (the family)", len(matches), len(fam))
	}
	if matches[0].ID != 0 || matches[0].Score != 100 {
		t.Fatalf("best match should be the query itself: %+v", matches[0])
	}
}

func TestIndexMatchesBruteForce(t *testing.T) {
	ix := NewIndex()
	var digests []Digest
	for i := 0; i < 8; i++ {
		digests = append(digests, family(t, uint64(10+i), 3, 20000+i*3000)...)
	}
	for _, d := range digests {
		ix.Add(d)
	}
	for qi, q := range digests {
		want := map[int]int{}
		for id, d := range digests {
			if s := Compare(q, d); s > 0 {
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
	ix := NewIndex()
	fam := family(t, 3, 6, 40000)
	for _, d := range fam {
		ix.Add(d)
	}
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
	ix := NewIndex()
	fam := family(t, 4, 8, 35000)
	for _, d := range fam {
		ix.Add(d)
	}
	matches := ix.Query(fam[0], 1)
	for i := 1; i < len(matches); i++ {
		if matches[i-1].Score < matches[i].Score {
			t.Fatal("matches not sorted by descending score")
		}
	}
}

func TestIndexEmptyAndMisses(t *testing.T) {
	ix := NewIndex()
	q := mustHash(t, corpus(50, 10000))
	if got := ix.Query(q, 1); len(got) != 0 {
		t.Fatalf("empty index returned %d matches", len(got))
	}
	ix.Add(mustHash(t, corpus(51, 10000)))
	if got := ix.Query(q, 1); len(got) != 0 {
		t.Fatalf("unrelated query matched: %+v", got)
	}
}

func TestIndexIdenticalShortDigests(t *testing.T) {
	// Identical inputs too small for 7-gram signatures must still find
	// each other through the exact-match path.
	tiny := []byte("tiny")
	d := mustHash(t, tiny)
	ix := NewIndex()
	id := ix.Add(d)
	matches := ix.Query(d, 1)
	if len(matches) != 1 || matches[0].ID != id || matches[0].Score != 100 {
		t.Fatalf("identical short digest not found: %+v", matches)
	}
}

func TestIndexRepeatedQueriesIndependent(t *testing.T) {
	ix := NewIndex()
	fam := family(t, 6, 4, 30000)
	for _, d := range fam {
		ix.Add(d)
	}
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
	ix := NewIndex()
	ix.Add(Digest{BlockSize: bs1, Sig1: "abc", Sig2: "de"})
	ix.Add(Digest{BlockSize: bs2, Sig1: "abc", Sig2: "de"})
	if len(ix.exact) != 2 {
		t.Fatalf("exact map has %d buckets, want 2 (one per block size)", len(ix.exact))
	}
}

// groupedCorpus indexes families of related digests, each family owning
// one group, and returns the digests with their group assignment.
func groupedCorpus(t *testing.T, ix *Index, nGroups, perGroup, size int) ([]Digest, []int) {
	t.Helper()
	var digests []Digest
	var groups []int
	for g := 0; g < nGroups; g++ {
		for _, d := range family(t, uint64(20+g), perGroup, size+g*2000) {
			ix.AddGroup(d, g)
			digests = append(digests, d)
			groups = append(groups, g)
		}
	}
	return digests, groups
}

// queryGroups is a grouped query under the default scoring.
func queryGroups(ix *Index, d Digest, numGroups int) []int {
	return ix.QueryGroupsPrepared(Prepare(d), numGroups, DistanceDL)
}

func TestQueryGroupsMatchesBruteForce(t *testing.T) {
	for _, dist := range []DistanceFunc{DistanceDL, DistanceLevenshtein, DistanceSpamsum} {
		ix := NewIndex()
		const nGroups = 5
		digests, groups := groupedCorpus(t, ix, nGroups, 4, 20000)
		for qi, q := range digests {
			want := make([]int, nGroups)
			for i, d := range digests {
				if s := CompareDistance(q, d, dist); s > want[groups[i]] {
					want[groups[i]] = s
				}
			}
			got := ix.QueryGroupsPrepared(Prepare(q), nGroups, dist)
			for g := range want {
				if got[g] != want[g] {
					t.Fatalf("query %d group %d: index score %d, brute force %d", qi, g, got[g], want[g])
				}
			}
		}
	}
}

func TestQueryGroupsEmptyGroups(t *testing.T) {
	ix := NewIndex()
	q := mustHash(t, corpus(80, 20000))
	// Empty index: every group scores zero.
	for g, s := range queryGroups(ix, q, 3) {
		if s != 0 {
			t.Fatalf("empty index scored %d for group %d", s, g)
		}
	}
	// Entries exist but only in group 0; groups 1 and 2 stay empty.
	ix.AddGroup(q, 0)
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
	ix := NewIndex()
	ix.AddGroup(d, 1)
	ix.AddGroup(other, 0)
	got := queryGroups(ix, d, 2)
	if got[0] != 0 || got[1] != 100 {
		t.Fatalf("queryGroups = %v, want [0 100]", got)
	}
}

func TestQueryGroupsIgnoresUngroupedEntries(t *testing.T) {
	ix := NewIndex()
	d := mustHash(t, corpus(81, 20000))
	ix.Add(d) // no owner group
	for g, s := range queryGroups(ix, d, 2) {
		if s != 0 {
			t.Fatalf("ungrouped entry scored %d for group %d", s, g)
		}
	}
}

func TestIndexConcurrentQueries(t *testing.T) {
	ix := NewIndex()
	const nGroups = 4
	digests, _ := groupedCorpus(t, ix, nGroups, 4, 25000)
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

func BenchmarkIndexQuery1000(b *testing.B) {
	ix := NewIndex()
	r := rng.New(1)
	base := corpus(70, 30000)
	for i := 0; i < 1000; i++ {
		mut := append([]byte(nil), base...)
		for j := 0; j < 50+i*5; j++ {
			mut[r.Intn(len(mut))] ^= byte(j)
		}
		d, err := HashBytes(mut)
		if err != nil {
			b.Fatal(err)
		}
		ix.Add(d)
	}
	q, _ := HashBytes(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(q, 50)
	}
}

func BenchmarkIndexAdd(b *testing.B) {
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
		ix := NewIndex()
		for _, d := range digests {
			ix.Add(d)
		}
	}
}
