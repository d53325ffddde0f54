package ssdeep

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/editdist"
	"repro/internal/extract"
	"repro/internal/rng"
	"repro/internal/synth"
)

// corpus returns len pseudo-random but deterministic bytes.
func corpus(seed uint64, n int) []byte {
	p := make([]byte, n)
	rng.New(seed).Bytes(p)
	return p
}

func mustHash(t *testing.T, data []byte) Digest {
	t.Helper()
	d, err := HashBytes(data)
	if err != nil {
		t.Fatalf("HashBytes: %v", err)
	}
	return d
}

func TestHashEmptyInput(t *testing.T) {
	if _, err := HashBytes(nil); err == nil {
		t.Fatal("HashBytes(nil) succeeded, want error")
	}
	if _, err := HashBytes([]byte{}); err == nil {
		t.Fatal("HashBytes(empty) succeeded, want error")
	}
}

func TestHashDeterministic(t *testing.T) {
	data := corpus(1, 8192)
	d1 := mustHash(t, data)
	d2 := mustHash(t, data)
	if d1 != d2 {
		t.Fatalf("hash not deterministic: %v vs %v", d1, d2)
	}
}

func TestDigestFormatRoundTrip(t *testing.T) {
	d := mustHash(t, corpus(2, 4096))
	s := d.String()
	parsed, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	if parsed != d {
		t.Fatalf("round trip mismatch: %v vs %v", parsed, d)
	}
	if strings.Count(s, ":") != 2 {
		t.Fatalf("digest %q does not have exactly two separators", s)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"nocolons",
		"3:onlyone",
		"x:abc:def",
		"-3:abc:def",
		"1:abc:def",                           // below MinBlockSize
		"3:" + strings.Repeat("A", 80) + ":x", // sig too long
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseAllowsEmptySignatures(t *testing.T) {
	d, err := Parse("3::")
	if err != nil {
		t.Fatalf("Parse(3::): %v", err)
	}
	if d.BlockSize != 3 || d.Sig1 != "" || d.Sig2 != "" {
		t.Fatalf("Parse(3::) = %+v", d)
	}
}

func TestSignatureLengthBounds(t *testing.T) {
	for _, n := range []int{16, 100, 1000, 10000, 100000} {
		d := mustHash(t, corpus(uint64(n), n))
		if len(d.Sig1) > SpamsumLength {
			t.Errorf("n=%d: Sig1 length %d exceeds %d", n, len(d.Sig1), SpamsumLength)
		}
		if len(d.Sig2) > SpamsumLength/2 {
			t.Errorf("n=%d: Sig2 length %d exceeds %d", n, len(d.Sig2), SpamsumLength/2)
		}
	}
}

func TestBlockSizeGrowsWithInput(t *testing.T) {
	small := mustHash(t, corpus(3, 500))
	large := mustHash(t, corpus(4, 500000))
	if small.BlockSize >= large.BlockSize {
		t.Fatalf("block size did not grow: small %d, large %d", small.BlockSize, large.BlockSize)
	}
	if small.BlockSize < MinBlockSize {
		t.Fatalf("block size %d below minimum", small.BlockSize)
	}
	// Block sizes are always MinBlockSize * 2^k.
	for _, d := range []Digest{small, large} {
		bs := d.BlockSize
		for bs > MinBlockSize {
			if bs%2 != 0 {
				t.Fatalf("block size %d is not MinBlockSize*2^k", d.BlockSize)
			}
			bs /= 2
		}
		if bs != MinBlockSize {
			t.Fatalf("block size %d is not MinBlockSize*2^k", d.BlockSize)
		}
	}
}

func TestIdenticalInputsScore100(t *testing.T) {
	data := corpus(5, 20000)
	a, b := mustHash(t, data), mustHash(t, append([]byte(nil), data...))
	if got := Compare(a, b); got != 100 {
		t.Fatalf("identical inputs score %d, want 100", got)
	}
}

func TestSimilarInputsScoreHigh(t *testing.T) {
	data := corpus(6, 40000)
	mutated := append([]byte(nil), data...)
	// Flip a handful of bytes: a tiny, localised modification.
	r := rng.New(99)
	for i := 0; i < 10; i++ {
		mutated[r.Intn(len(mutated))] ^= 0xff
	}
	a, b := mustHash(t, data), mustHash(t, mutated)
	got := Compare(a, b)
	if got < 60 {
		t.Fatalf("10-byte mutation of 40kB scores %d, want >= 60", got)
	}
}

func TestInsertionPreservesSimilarity(t *testing.T) {
	// The defining CTPH property: inserting bytes in the middle realigns
	// the chunking after the insertion point, so similarity stays high.
	data := corpus(7, 30000)
	var buf bytes.Buffer
	buf.Write(data[:15000])
	buf.WriteString("INSERTED-CONTENT-THAT-WAS-NOT-THERE-BEFORE")
	buf.Write(data[15000:])
	a, b := mustHash(t, data), mustHash(t, buf.Bytes())
	if got := Compare(a, b); got < 55 {
		t.Fatalf("mid-file insertion scores %d, want >= 55", got)
	}
}

func TestUnrelatedInputsScoreZero(t *testing.T) {
	a := mustHash(t, corpus(8, 30000))
	b := mustHash(t, corpus(9, 30000))
	if got := Compare(a, b); got != 0 {
		t.Fatalf("unrelated random inputs score %d, want 0", got)
	}
}

func TestIncompatibleBlockSizesScoreZero(t *testing.T) {
	small := mustHash(t, corpus(10, 300))
	large := mustHash(t, corpus(11, 3000000))
	if small.BlockSize*4 > large.BlockSize {
		t.Skip("inputs did not produce block sizes 4x apart")
	}
	if got := Compare(small, large); got != 0 {
		t.Fatalf("incompatible block sizes score %d, want 0", got)
	}
}

func TestCompareZeroDigest(t *testing.T) {
	d := mustHash(t, corpus(12, 1000))
	if got := Compare(d, Digest{}); got != 0 {
		t.Fatalf("comparison with zero digest = %d, want 0", got)
	}
	if got := Compare(Digest{}, Digest{}); got != 0 {
		t.Fatalf("zero-zero comparison = %d, want 0", got)
	}
}

func TestCompareSymmetric(t *testing.T) {
	r := rng.New(13)
	for i := 0; i < 20; i++ {
		base := corpus(uint64(100+i), 20000)
		mut := append([]byte(nil), base...)
		for j := 0; j < 200; j++ {
			mut[r.Intn(len(mut))]++
		}
		a, b := mustHash(t, base), mustHash(t, mut)
		if ab, ba := Compare(a, b), Compare(b, a); ab != ba {
			t.Fatalf("asymmetric score: %d vs %d", ab, ba)
		}
	}
}

func TestScoreMonotonicInMutationRate(t *testing.T) {
	base := corpus(14, 50000)
	score := func(nmut int) int {
		mut := append([]byte(nil), base...)
		r := rng.New(uint64(nmut))
		for i := 0; i < nmut; i++ {
			mut[r.Intn(len(mut))] ^= byte(i + 1)
		}
		return Compare(mustHash(t, base), mustHash(t, mut))
	}
	light := score(5)
	heavy := score(5000)
	if light <= heavy {
		t.Fatalf("light mutation (%d) should outscore heavy mutation (%d)", light, heavy)
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"abc", "abc"},
		{"aaabbb", "aaabbb"},
		{"aaaa", "aaa"},
		{"aaaaaabbbbbbccc", "aaabbbccc"},
		{"xaaaaay", "xaaay"},
	}
	for _, c := range cases {
		if got := normalize(c.in); got != c.want {
			t.Errorf("normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// gramCollisions returns n pairs of distinct 7-byte base64 windows
// whose rolling gram hashes are equal, found by brute force over a fixed
// pseudo-random stream of windows.
func gramCollisions(tb testing.TB, n int) [][2]string {
	tb.Helper()
	r := rng.New(7)
	seen := make(map[uint32]string)
	var out [][2]string
	var w [rollingWindow]byte
	var h [1]uint32
	for tries := 0; len(out) < n; tries++ {
		if tries == 1<<22 {
			tb.Fatalf("found %d of %d gram-hash collisions in %d windows", len(out), n, tries)
		}
		for i := range w {
			w[i] = b64[r.Intn(len(b64))]
		}
		s := string(w[:])
		if normalize(s) != s {
			continue
		}
		k := gramHashes(s, h[:0])[0]
		if prev, ok := seen[k]; !ok {
			seen[k] = s
		} else if prev != s {
			out = append(out, [2]string{prev, s})
		}
	}
	return out
}

// TestHasCommonSubstring pins the common-substring gate as production
// runs it: the merge in commonGram over the sorted grams Prepare
// computes, agreeing with the quadratic commonGramOracle and the byte
// scan, in both argument orders. The colliding windows share a rolling
// gram hash but differ in their bytes, so the gate must confirm every
// hash match on the bytes, including a later pair inside a run of
// equal hashes.
func TestHasCommonSubstring(t *testing.T) {
	gate := func(s1, s2 string) bool {
		p := Prepare(Digest{BlockSize: MinBlockSize, Sig1: s1})
		q := Prepare(Digest{BlockSize: MinBlockSize, Sig1: s2})
		return commonGram(p.sig1, q.sig1, p.grams1, q.grams1)
	}
	type gateCase struct {
		s1, s2 string
		want   bool
	}
	cases := []gateCase{
		{"abcdefg", "hijklmn", false},
		{"xxabcdefgxx", "yyabcdefgyy", true},
		{"abcdef", "abcdef", false},
		{"xEbnKkzcx", "yLCOjJgfy", false},
		{"EbnKkzcLCOjJgf", "LCOjJgf", true},
		// Repeated grams, on one side and on both.
		{"abcdefgabcdefg", "xxabcdefgxx", true},
		{"abcdefgabcdefg", "bcdefgh", false},
		{"abcdefgabcdefg", "zabcdefgabcdefgz", true},
	}
	for _, c := range gramCollisions(t, 3) {
		a, b := c[0], c[1]
		cases = append(cases,
			gateCase{a, b, false},
			gateCase{"x" + a + "y", "z" + b + "w", false},
			// An equal-hash run where only the later pair matches.
			gateCase{a + b, b, true},
			gateCase{a + "!" + a, b + "?" + a, true},
			// Runs on both sides with no byte match at all.
			gateCase{a + "_" + a, b + "_" + b, false},
		)
	}
	for _, c := range cases {
		for _, s := range [][2]string{{c.s1, c.s2}, {c.s2, c.s1}} {
			if got := gate(s[0], s[1]); got != c.want {
				t.Errorf("gate(%q, %q) = %v, want %v", s[0], s[1], got, c.want)
			}
			if got := commonGramOracle(s[0], s[1]); got != c.want {
				t.Errorf("commonGramOracle(%q, %q) = %v, want %v", s[0], s[1], got, c.want)
			}
			if got := hasCommonSubstring(s[0], s[1]); got != c.want {
				t.Errorf("hasCommonSubstring(%q, %q) = %v, want %v", s[0], s[1], got, c.want)
			}
		}
	}
}

// signature returns an n-byte base64 signature with no run longer than
// maxRepeat, so normalisation leaves it as it is.
func signature(seed uint64, n int) string {
	r := rng.New(seed)
	out := make([]byte, 0, n)
	for len(out) < n {
		c := b64[r.Intn(len(b64))]
		if k := len(out); k >= maxRepeat && out[k-1] == c && out[k-2] == c && out[k-3] == c {
			continue
		}
		out = append(out, c)
	}
	return string(out)
}

// checkGrams asserts that grams are the sorted packed grams of sig: one
// per window start, no start wrapped, each hash that of its window. A
// signature over SpamsumLength gets none.
func checkGrams(t *testing.T, sig string, grams []uint64) {
	t.Helper()
	if len(sig) > SpamsumLength {
		if len(grams) != 0 {
			t.Errorf("%d-byte signature has %d grams, want none", len(sig), len(grams))
		}
		return
	}
	if want := max(0, len(sig)-rollingWindow+1); len(grams) != want {
		t.Fatalf("%d-byte signature has %d grams, want %d", len(sig), len(grams), want)
	}
	if !slices.IsSorted(grams) {
		t.Errorf("grams of %q are not sorted", sig)
	}
	starts := make([]bool, len(grams))
	for _, g := range grams {
		pos := int(uint32(g))
		if pos >= len(grams) || starts[pos] {
			t.Fatalf("gram start %d of %d-byte signature is out of range or repeated", pos, len(sig))
		}
		starts[pos] = true
		if h := gramHashes(sig[pos:pos+rollingWindow], nil)[0]; uint32(g>>32) != h {
			t.Errorf("gram at %d hashes %#x, window hashes %#x", pos, g>>32, h)
		}
	}
}

// TestOverLongSignatures covers digests built without Parse, whose
// signatures may exceed SpamsumLength (up to 300 bytes): Prepare keeps
// every window start unwrapped and gives over-long signatures no grams,
// ComparePrepared scores them as the oracle does, and the index still
// finds an identical over-long digest through its exact map.
func TestOverLongSignatures(t *testing.T) {
	var digests []Digest
	for i, n := range []int{7, 57, 63, 64, 65, 128, 255, 256, 257, 300} {
		long := signature(uint64(100+i), n)
		half := signature(uint64(200+i), min(n, SpamsumLength/2))
		digests = append(digests,
			Digest{BlockSize: 48, Sig1: long, Sig2: half},
			Digest{BlockSize: 48, Sig1: long[:n-1] + "/", Sig2: half},
			Digest{BlockSize: 24, Sig1: signature(uint64(300+i), 40), Sig2: long},
			Digest{BlockSize: 96, Sig1: long, Sig2: long},
		)
	}
	// 300 raw bytes that normalise to 40: starts index the normalised form.
	digests = append(digests, Digest{BlockSize: 48, Sig1: strings.Repeat(strings.Repeat("A", 29)+"B", 10)})

	for _, d := range digests {
		p := Prepare(d)
		checkGrams(t, p.sig1, p.grams1)
		checkGrams(t, p.sig2, p.grams2)
	}
	for _, a := range digests {
		pa := Prepare(a)
		for _, b := range digests {
			pb := Prepare(b)
			for di, dp := range dpDistances {
				if got, want := ComparePrepared(pa, pb, Distance(di)), compareDistanceOracle(a, b, dp); got != want {
					t.Errorf("distance %d: ComparePrepared(%v, %v) = %d, oracle %d", di, a, b, got, want)
				}
			}
		}
	}

	ix := NewIndex(digests, nil)
	for qi, q := range digests {
		var want []Match
		for id, e := range digests {
			if score := compareDistanceOracle(q, e, editdist.OSADP); score > 0 {
				want = append(want, Match{ID: id, Score: score})
			}
		}
		slices.SortStableFunc(want, func(a, b Match) int { return b.Score - a.Score })
		got := ix.Query(q, 1)
		if !slices.Equal(got, want) {
			t.Errorf("Query(%v) = %v, scan %v", q, got, want)
		}
		if !slices.Contains(got, Match{ID: qi, Score: 100}) {
			t.Errorf("Query(%v) misses the identical digest %d: %v", q, qi, got)
		}
	}
}

// TestPrepareAllocatesOnce pins Prepare at one allocation, the array
// both signatures' grams share, for a digest whose signatures need no
// normalising.
func TestPrepareAllocatesOnce(t *testing.T) {
	d := mustHash(t, corpus(5, 30000))
	if normalize(d.Sig1) != d.Sig1 || normalize(d.Sig2) != d.Sig2 || len(d.Sig2) < rollingWindow {
		t.Fatalf("digest %v needs normalising or has no grams", d)
	}
	var sink Prepared
	if n := testing.AllocsPerRun(100, func() { sink = Prepare(d) }); n != 1 {
		t.Errorf("Prepare allocates %v times, want 1", n)
	}
	if len(sink.grams1) == 0 {
		t.Fatal("prepared digest has no grams")
	}
}

func TestBlockSizeRetryOnSparseTriggers(t *testing.T) {
	// Low-entropy input: the rolling hash rarely fires at the initial
	// block-size guess, so the implementation must halve the block size
	// until the signature carries enough resolution.
	data := bytes.Repeat([]byte{0, 0, 0, 0, 1}, 20000) // 100kB, highly regular
	d := mustHash(t, data)
	naive := uint32(MinBlockSize)
	for uint64(naive)*SpamsumLength < uint64(len(data)) {
		naive *= 2
	}
	if d.BlockSize >= naive {
		t.Skipf("input produced enough triggers at the naive block size %d", naive)
	}
	if len(d.Sig1) < SpamsumLength/2 && d.BlockSize > MinBlockSize {
		t.Fatalf("retry stopped early: bs=%d sig1 len=%d", d.BlockSize, len(d.Sig1))
	}
}

func TestHashTinyInputs(t *testing.T) {
	for n := 1; n <= 32; n++ {
		data := corpus(uint64(n), n)
		d := mustHash(t, data)
		if d.BlockSize != MinBlockSize {
			t.Fatalf("n=%d: block size %d, want %d", n, d.BlockSize, MinBlockSize)
		}
		if got := Compare(d, d); got != 100 {
			t.Fatalf("n=%d: self-similarity %d", n, got)
		}
	}
}

// TestPreparedMatchesCompare holds CompareDistance and ComparePrepared to
// the string-compare oracle over hashed digests and their mutations,
// plus a pair whose 70-character Sig1 the reference implementation's
// length guard scores 0. Under each Distance the oracle scores with that
// distance's dynamic program, so the bit-parallel edit distances are
// held to their DP forms through the whole compare.
func TestPreparedMatchesCompare(t *testing.T) {
	r := rng.New(16)
	digests := make([]Digest, 0, 14)
	for i := 0; i < 6; i++ {
		base := corpus(uint64(200+i), 10000+i*7000)
		digests = append(digests, mustHash(t, base))
		mut := append([]byte(nil), base...)
		for j := 0; j < 50; j++ {
			mut[r.Intn(len(mut))] ^= 0x55
		}
		digests = append(digests, mustHash(t, mut))
	}
	long := strings.Repeat(b64[:35], 2)
	digests = append(digests,
		Digest{BlockSize: 96, Sig1: long, Sig2: "AbCdEfGhIjKlMnOp"},
		Digest{BlockSize: 96, Sig1: long[:60] + "zzzzyyyyxx", Sig2: "QrStUvWxYz012345"})
	prepared := make([]Prepared, len(digests))
	for i, d := range digests {
		prepared[i] = Prepare(d)
	}
	for di, dp := range dpDistances {
		dist := Distance(di)
		for i := range digests {
			for j := range digests {
				want := compareDistanceOracle(digests[i], digests[j], dp)
				if got := CompareDistance(digests[i], digests[j], dist); got != want {
					t.Fatalf("CompareDistance[%d,%d] = %d, oracle = %d", i, j, got, want)
				}
				if got := ComparePrepared(prepared[i], prepared[j], dist); got != want {
					t.Fatalf("ComparePrepared[%d,%d] = %d, oracle = %d", i, j, got, want)
				}
			}
		}
	}
}

// TestUnknownDistancePanics pins the closed distance set: a Distance
// outside it never scores as one of the three.
func TestUnknownDistancePanics(t *testing.T) {
	a := mustHash(t, corpus(31, 20000))
	mut := corpus(31, 20000)
	mut[100] ^= 0x55
	b := mustHash(t, mut)
	if CompareDistance(a, b, DistanceDL) == 0 {
		t.Fatal("test premise broken: the pair scores 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CompareDistance scored with an unknown Distance")
		}
	}()
	CompareDistance(a, b, DistanceSpamsum+1)
}

func TestDistanceVariantsOrdering(t *testing.T) {
	// The spamsum-weighted distance penalises substitutions more, so its
	// scores can only be lower or equal for the same pair.
	base := corpus(17, 30000)
	mut := append([]byte(nil), base...)
	r := rng.New(18)
	for i := 0; i < 300; i++ {
		mut[r.Intn(len(mut))] ^= 0x0f
	}
	a, b := mustHash(t, base), mustHash(t, mut)
	dl := CompareDistance(a, b, DistanceDL)
	sp := CompareDistance(a, b, DistanceSpamsum)
	if sp > dl {
		t.Fatalf("spamsum score %d exceeds DL score %d", sp, dl)
	}
}

// Property: scores always stay within [0, 100] and self-comparison is 100.
func TestScoreRangeProperty(t *testing.T) {
	f := func(seed uint64, sizeSel uint16, nmut uint8) bool {
		size := 1000 + int(sizeSel)%60000
		base := corpus(seed, size)
		mut := append([]byte(nil), base...)
		r := rng.New(seed ^ 0xdead)
		for i := 0; i < int(nmut); i++ {
			mut[r.Intn(len(mut))] ^= 0xaa
		}
		a, err := HashBytes(base)
		if err != nil {
			return false
		}
		b, err := HashBytes(mut)
		if err != nil {
			return false
		}
		s := Compare(a, b)
		return s >= 0 && s <= 100 && Compare(a, a) == 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// stringsCorpus returns n bytes of strings(1) text cut from generated
// ELF images: the low-entropy, line-shaped input the ssdeep-strings
// feature hashes, where random bytes would never make the block-size
// guess retry.
func stringsCorpus(b *testing.B, n int) []byte {
	b.Helper()
	var text []byte
	for seed := uint64(1); len(text) < n; seed++ {
		samples, err := synth.GenerateOne(synth.ClassSpec{Name: "Text", Samples: 8}, synth.Options{Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range samples {
			text = append(text, extract.StringsText(s.Binary, 0)...)
		}
	}
	return text[:n]
}

func benchHashBytes(b *testing.B, data []byte) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HashBytes(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHash64KB(b *testing.B) { benchHashBytes(b, corpus(30, 64*1024)) }

func BenchmarkHash64KBStrings(b *testing.B) { benchHashBytes(b, stringsCorpus(b, 64*1024)) }

func BenchmarkHash1MB(b *testing.B) { benchHashBytes(b, corpus(31, 1024*1024)) }

func BenchmarkHash1MBStrings(b *testing.B) { benchHashBytes(b, stringsCorpus(b, 1024*1024)) }

func BenchmarkCompareSimilar(b *testing.B) {
	base := corpus(32, 100000)
	mut := append([]byte(nil), base...)
	r := rng.New(33)
	for i := 0; i < 100; i++ {
		mut[r.Intn(len(mut))] ^= 1
	}
	d1, _ := HashBytes(base)
	d2, _ := HashBytes(mut)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compare(d1, d2)
	}
}

func BenchmarkComparePrepared(b *testing.B) {
	base := corpus(34, 100000)
	mut := append([]byte(nil), base...)
	r := rng.New(35)
	for i := 0; i < 100; i++ {
		mut[r.Intn(len(mut))] ^= 1
	}
	d1, _ := HashBytes(base)
	d2, _ := HashBytes(mut)
	p1, p2 := Prepare(d1), Prepare(d2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComparePrepared(p1, p2, DistanceDL)
	}
}

func BenchmarkCompareDissimilar(b *testing.B) {
	d1, _ := HashBytes(corpus(36, 100000))
	d2, _ := HashBytes(corpus(37, 100000))
	p1, p2 := Prepare(d1), Prepare(d2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComparePrepared(p1, p2, DistanceDL)
	}
}

// TestKnownAnswerVectors pins the digest and scorer against reference
// values. The digest is libfuzzy's (ssdeep's reference implementation)
// for the pangram, from HashBytes and from the buffered test oracle.
// The scorer follows libfuzzy's fuzzy_compare, whose common-substring
// gate scores 0 for two signatures that share no 7-gram — which is why
// the near-identical second digest below scores 0 here, where a scorer
// without the gate would report a high match.
func TestKnownAnswerVectors(t *testing.T) {
	const (
		pangram = "The quick brown fox jumps over the lazy dog"
		want    = "3:FJKKIUKact:FHIGi"
		other   = "3:FJKKIrKact:FHIrGi"
	)
	for name, hash := range map[string]func([]byte) (Digest, error){
		"HashBytes":       HashBytes,
		"hashBytesOracle": hashBytesOracle,
	} {
		d, err := hash([]byte(pangram))
		if err != nil {
			t.Fatal(err)
		}
		if got := d.String(); got != want {
			t.Fatalf("%s(%q) = %s, want %s", name, pangram, got, want)
		}
	}
	for _, tc := range []struct {
		a, b  string
		score int
	}{
		{want, other, 0}, // no shared 7-gram: the gate zeroes the pair
		{want, want, 100},
	} {
		da, err := Parse(tc.a)
		if err != nil {
			t.Fatal(err)
		}
		db, err := Parse(tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if got := Compare(da, db); got != tc.score {
			t.Fatalf("Compare(%s, %s) = %d, want %d", tc.a, tc.b, got, tc.score)
		}
	}
}
