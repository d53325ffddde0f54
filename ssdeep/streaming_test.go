package ssdeep

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"repro/internal/extract"
	"repro/internal/synth"
)

// writeChunked feeds data to h in chunks of the given sizes, cycling
// through sizes until data is exhausted.
func writeChunked(h *Hasher, data []byte, sizes []int) {
	for i := 0; len(data) > 0; i++ {
		n := sizes[i%len(sizes)]
		if n <= 0 {
			n = 1
		}
		if n > len(data) {
			n = len(data)
		}
		h.Write(data[:n])
		data = data[n:]
	}
}

// synthInputs returns the three byte streams the paper's features hash
// for a few generated ELF images, one stripped: the image itself, its
// strings(1) text and its nm(1) symbol text. The two texts are the
// low-entropy, text-shaped inputs the serving path hashes on every
// request.
func synthInputs(t testing.TB) map[string][]byte {
	t.Helper()
	c, err := synth.Generate([]synth.ClassSpec{
		{Name: "HashA", Samples: 2},
		{Name: "HashB", Samples: 1},
	}, synth.Options{Seed: 11, StrippedFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for i, s := range c.Samples {
		out[fmt.Sprintf("synth-%d-elf", i)] = s.Binary
		out[fmt.Sprintf("synth-%d-strings", i)] = extract.StringsText(s.Binary, 0)
		if sym, err := extract.SymbolsText(s.Binary); err == nil {
			out[fmt.Sprintf("synth-%d-symbols", i)] = sym
		}
	}
	return out
}

// streamingInputs is the shared corpus of inputs chosen to hit every
// structural branch: block-size halving (short and low-entropy inputs),
// multi-context cascades, signature caps, and the residue-only path,
// plus the real binary shapes of synthInputs.
func streamingInputs(t testing.TB) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(0x5eed))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	inputs := map[string][]byte{
		"one-byte":        {0x42},
		"window-exact":    []byte("1234567"),
		"ascii-short":     []byte("hello world, streaming ctph should match the oracle"),
		"zeros-small":     make([]byte, 100),
		"zeros-large":     make([]byte, 1<<16),
		"repeat-ab":       bytes.Repeat([]byte{0xaa, 0x55}, 4000),
		"repeat-text":     bytes.Repeat([]byte("abcdefg"), 3000),
		"random-1k":       random(1 << 10),
		"random-64k":      random(64 << 10),
		"random-1m":       random(1 << 20),
		"random-odd":      random(12347),
		"halving-trigger": append(random(200), make([]byte, 8000)...),
		"sparse":          append(make([]byte, 5000), random(64)...),
	}
	for name, data := range synthInputs(t) {
		inputs[name] = data
	}
	return inputs
}

// TestHasherMatchesHashBytes is the core differential: the streaming
// digest must be bit-identical to the buffered oracle across inputs and
// chunkings, including one-byte writes, with and without the length
// declared up front; so must HashBytes, the whole-buffer write.
func TestHasherMatchesHashBytes(t *testing.T) {
	chunkings := map[string][]int{
		"whole":     {1 << 30},
		"one-byte":  {1},
		"tiny":      {2, 3, 1, 5},
		"64k":       {64 << 10},
		"odd-sizes": {7, 113, 1, 4096, 31},
	}
	for name, data := range streamingInputs(t) {
		want, err := hashBytesOracle(data)
		if err != nil {
			t.Fatalf("hashBytesOracle(%s): %v", name, err)
		}
		if got, err := HashBytes(data); err != nil || got != want {
			t.Fatalf("%s: HashBytes %q (%v) != oracle %q", name, got, err, want)
		}
		for cname, sizes := range chunkings {
			for _, hinted := range []bool{false, true} {
				h := NewHasher()
				if hinted {
					h.SetTotalLength(int64(len(data)))
				}
				writeChunked(h, data, sizes)
				got, err := h.Sum()
				h.Release()
				if err != nil {
					t.Fatalf("%s/%s/hinted=%v: Sum: %v", name, cname, hinted, err)
				}
				if got != want {
					t.Fatalf("%s/%s/hinted=%v: streaming %q != buffered %q", name, cname, hinted, got, want)
				}
			}
		}
	}
}

// TestHasherIncrementalPrefixes checks every prefix of an input against
// the oracle using a single hasher: Sum must be non-destructive and the
// state must stay exact as bytes keep arriving.
func TestHasherIncrementalPrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 3000)
	rng.Read(data)
	h := NewHasher()
	defer h.Release()
	for i := 1; i <= len(data); i++ {
		h.Write(data[i-1 : i])
		if i%257 != 0 && i != len(data) {
			continue // spot-check prefixes; every byte would be O(n^2)
		}
		got, err := h.Sum()
		if err != nil {
			t.Fatalf("Sum after %d bytes: %v", i, err)
		}
		want, err := hashBytesOracle(data[:i])
		if err != nil {
			t.Fatalf("hashBytesOracle(%d bytes): %v", i, err)
		}
		if got != want {
			t.Fatalf("prefix %d: streaming %q != buffered %q", i, got, want)
		}
	}
	// Sum twice: identical, still matching.
	a, _ := h.Sum()
	b, _ := h.Sum()
	if a != b {
		t.Fatalf("Sum not idempotent: %q vs %q", a, b)
	}
}

// TestHasherEmptyAndReset covers the empty-input error and pool reuse.
func TestHasherEmptyAndReset(t *testing.T) {
	h := NewHasher()
	defer h.Release()
	if _, err := h.Sum(); err != ErrEmptyInput {
		t.Fatalf("Sum of empty hasher: got %v, want ErrEmptyInput", err)
	}
	h.Write([]byte("some bytes to dirty the state, enough to fork contexts and append characters"))
	if _, err := h.Sum(); err != nil {
		t.Fatalf("Sum: %v", err)
	}
	h.Reset()
	if _, err := h.Sum(); err != ErrEmptyInput {
		t.Fatalf("Sum after Reset: got %v, want ErrEmptyInput", err)
	}
	data := []byte("fresh input after reset must hash as if the hasher were new")
	h.Write(data)
	got, err := h.Sum()
	if err != nil {
		t.Fatalf("Sum after Reset+Write: %v", err)
	}
	want, _ := hashBytesOracle(data)
	if got != want {
		t.Fatalf("after Reset: %q != %q", got, want)
	}
}

// TestHasherDeclaredLengthMismatch checks that a declared length the
// input misses by one byte either way makes Sum fail with no digest,
// whatever the chunking, rather than return a digest of other bytes.
func TestHasherDeclaredLengthMismatch(t *testing.T) {
	data := streamingInputs(t)["random-64k"]
	h := NewHasher()
	defer h.Release()
	for _, declared := range []int{len(data) - 1, len(data) + 1} {
		for _, sizes := range [][]int{{1 << 30}, {4096}} {
			h.Reset()
			h.SetTotalLength(int64(declared))
			writeChunked(h, data, sizes)
			if d, err := h.Sum(); err == nil || !d.IsZero() {
				t.Fatalf("declared %d, wrote %d: Sum = %q, %v; want an error and no digest",
					declared, len(data), d, err)
			}
		}
	}
	// n <= 0 declares nothing.
	h.Reset()
	h.SetTotalLength(0)
	h.Write(data)
	if got, want := mustSum(t, h), mustOracle(t, data); got != want {
		t.Fatalf("SetTotalLength(0): %q != %q", got, want)
	}
}

// TestHasherPoolReuseClearsHint hashes a small input under a declared
// length, returns the Hasher to the pool and hashes a 2 MiB input
// without one: the cap on forked contexts and the declared length must
// not carry over, or the large digest would be wrong or fail.
func TestHasherPoolReuseClearsHint(t *testing.T) {
	small := streamingInputs(t)["random-1k"]
	large := make([]byte, 2<<20)
	rand.New(rand.NewSource(21)).Read(large)
	want := mustOracle(t, large)

	h := NewHasher()
	h.SetTotalLength(int64(len(small)))
	h.Write(small)
	if got := mustSum(t, h); got != mustOracle(t, small) {
		t.Fatalf("hinted small input: %q", got)
	}
	h.Release()
	// NewHasher usually hands back the Hasher just released; either
	// way it must hash as if new.
	h = NewHasher()
	defer h.Release()
	writeChunked(h, large, []int{64 << 10})
	if got := mustSum(t, h); got != want {
		t.Fatalf("after pool reuse: %q != %q", got, want)
	}
	// The same through Reset on one Hasher, pool or no pool.
	h.Reset()
	h.SetTotalLength(int64(len(small)))
	h.Write(small)
	h.Reset()
	writeChunked(h, large, []int{64 << 10})
	if got := mustSum(t, h); got != want {
		t.Fatalf("after Reset: %q != %q", got, want)
	}
}

func mustSum(t *testing.T, h *Hasher) Digest {
	t.Helper()
	d, err := h.Sum()
	if err != nil {
		t.Fatalf("Sum: %v", err)
	}
	return d
}

// TestHashReaderStreaming hashes readers the way callers stream one
// into a Hasher, through io.Copy: one-byte reads must give the buffered
// digest (so Write honours the io.Writer contract on short writes), an
// empty reader must give ErrEmptyInput and a read error must surface.
func TestHashReaderStreaming(t *testing.T) {
	h := NewHasher()
	defer h.Release()
	for name, data := range streamingInputs(t) {
		h.Reset()
		if _, err := io.Copy(h, iotest.OneByteReader(bytes.NewReader(data))); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := h.Sum()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want, _ := hashBytesOracle(data); got != want {
			t.Fatalf("%s: streaming %q != buffered %q", name, got, want)
		}
	}
	h.Reset()
	if _, err := io.Copy(h, bytes.NewReader(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Sum(); err != ErrEmptyInput {
		t.Fatalf("empty reader: got %v, want ErrEmptyInput", err)
	}
	// The first read yields a prefix, the second fails.
	boom := iotest.TimeoutReader(bytes.NewReader([]byte("partial")))
	if _, err := io.Copy(h, boom); err != iotest.ErrTimeout {
		t.Fatal("read error not propagated")
	}
}

// TestLaneStepMatchesFNV checks the identity the packed lanes rest on:
// the FNV step modulo 64 depends only on h modulo 64, so a lane's 6-bit
// residue steps to exactly sumHash(h, c) % 64. It covers every residue
// and byte in every lane position, random full 32-bit hashes, and long
// runs of steps from hashInit; a lane must never hold bits above its
// residue.
func TestLaneStepMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(hs [4]uint32, c byte) {
		t.Helper()
		var lanes uint64
		for j, hv := range hs {
			lanes |= uint64(hv%64) << (16 * j)
		}
		got := stepLanes(lanes, uint64(c)*laneOnes)
		for j, hv := range hs {
			if lane, want := got>>(16*j)&0xffff, uint64(sumHash(hv, c)%64); lane != want {
				t.Fatalf("lane %d: h %#x, c %#x: stepped to %d, FNV mod 64 is %d", j, hv, c, lane, want)
			}
		}
	}
	for r := uint32(0); r < 64; r++ {
		for c := 0; c < 256; c++ {
			var hs [4]uint32
			for j := range hs {
				hs[j] = rng.Uint32()&^63 | (r+uint32(17*j))%64
			}
			check(hs, byte(c))
		}
	}
	for range 100000 {
		check([4]uint32{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()}, byte(rng.Intn(256)))
	}
	hv, lanes := uint32(hashInit), uint64(laneInit)*laneOnes
	for i := range 100000 {
		c := byte(rng.Intn(256))
		hv, lanes = sumHash(hv, c), stepLanes(lanes, uint64(c)*laneOnes)
		if lanes != uint64(hv%64)*laneOnes {
			t.Fatalf("after %d steps from hashInit: lanes %#x, FNV mod 64 %d", i+1, lanes, hv%64)
		}
	}
}

// TestCorpusDrivesUpperLanes pins the coverage the differential tests
// rely on: written unhinted, the streamingInputs corpus keeps more than
// eight contexts live at once. So the digests TestHasherMatchesHashBytes
// compares against the oracle also depend on the lane words that step
// in memory rather than in registers (slots 4 and up).
func TestCorpusDrivesUpperLanes(t *testing.T) {
	h := NewHasher()
	defer h.Release()
	most, where := 0, ""
	for name, data := range streamingInputs(t) {
		h.Reset()
		for i := range data {
			h.Write(data[i : i+1])
			if live := h.bhend - h.bhstart; live > most {
				most, where = live, name
			}
		}
	}
	t.Logf("at most %d live contexts, in %s", most, where)
	if most <= 8 {
		t.Fatalf("the corpus keeps at most %d contexts live, want more than 8", most)
	}
}

// TestHasherRollMatchesRollState checks the rolling hash Write keeps in
// locals against rollState.roll, the reference's byte-at-a-time ring,
// after every Write of several chunkings: its sums, its window in ring
// layout and its count. One run starts five bytes before the uint32
// count wraps, where the ring's slot order slips.
func TestHasherRollMatchesRollState(t *testing.T) {
	data := make([]byte, 300)
	rand.New(rand.NewSource(13)).Read(data)
	for _, start := range []uint32{0, 1<<32 - 5} {
		for _, sizes := range [][]int{{1}, {2, 3, 1, 5}, {7}, {8, 6, 40}, {1 << 30}} {
			h := NewHasher()
			h.roll.n = start
			want := rollState{n: start}
			for i := 0; i < len(data); {
				n := min(sizes[i%len(sizes)], len(data)-i)
				h.Write(data[i : i+n])
				for _, c := range data[i : i+n] {
					want.roll(c)
				}
				i += n
				if h.roll != want {
					t.Fatalf("start %d, chunks %v, after %d bytes: Hasher %+v, rollState %+v",
						start, sizes, i, h.roll, want)
				}
			}
			h.Release()
		}
	}
}

// TestHasherZeroAlloc proves the steady-state write loop and Sum do not
// allocate: the O(1)-memory ingestion invariant at the hasher layer.
func TestHasherZeroAlloc(t *testing.T) {
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(5)).Read(data)
	h := NewHasher()
	defer h.Release()
	h.Write(data) // warm: fork all contexts this input will ever need
	allocs := testing.AllocsPerRun(10, func() {
		h.Write(data)
	})
	if allocs != 0 {
		t.Fatalf("Write allocates %v times per call", allocs)
	}
	h.Reset()
	h.SetTotalLength(int64(len(data)))
	allocs = testing.AllocsPerRun(10, func() {
		h.Write(data)
	})
	if allocs != 0 {
		t.Fatalf("Write with a declared length allocates %v times per call", allocs)
	}
	h.Reset()
	h.Write(data)
	// Sum allocates only the two signature strings.
	allocs = testing.AllocsPerRun(10, func() {
		if _, err := h.Sum(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Sum allocates %v times per call, want <= 2", allocs)
	}
}

// coldBody returns the shape of a cold upload: a synthetic ELF image
// padded to 1 MiB with a seeded random tail.
func coldBody(tb testing.TB) []byte {
	tb.Helper()
	samples, err := synth.GenerateOne(synth.ClassSpec{Name: "B", Samples: 1}, synth.Options{Seed: 9})
	if err != nil {
		tb.Fatal(err)
	}
	body := make([]byte, 1<<20)
	n := copy(body, samples[0].Binary)
	rand.New(rand.NewSource(2)).Read(body[n:])
	return body
}

// writeLog records the sizes of the writes made into it.
type writeLog struct {
	data  []byte
	sizes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	w.sizes = append(w.sizes, len(p))
	return len(p), nil
}

// BenchmarkHashStreaming measures the streaming hasher against the
// buffered test oracle on the same input: one whole-input Write, then the
// 64 KiB writes dataset.FromReader makes, without and with the declared
// length it passes when the reader knows it. The inputs are 1 MiB of
// random bytes and the strings(1) text of a cold upload (coldBody); the
// text is also fed in the run-sized writes the strings channel of
// dataset.FromReader makes, unhinted as there, which prices the
// per-call cost of Write.
func BenchmarkHashStreaming(b *testing.B) {
	random := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(random)
	var runs writeLog
	var str extract.StringStreamer
	str.Reset(&runs, 0)
	str.Write(coldBody(b))
	str.Close()
	stream := func(data []byte, sizes []int, hinted bool) func(*testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			h := NewHasher()
			defer h.Release()
			for i := 0; i < b.N; i++ {
				h.Reset()
				if hinted {
					h.SetTotalLength(int64(len(data)))
				}
				writeChunked(h, data, sizes)
				if _, err := h.Sum(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	buffered := func(data []byte) func(*testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hashBytesOracle(data); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("streaming", stream(random, []int{len(random)}, false))
	b.Run("chunked64k", stream(random, []int{64 << 10}, false))
	b.Run("chunked64k-hinted", stream(random, []int{64 << 10}, true))
	b.Run("buffered", buffered(random))
	b.Run("strings-chunked64k", stream(runs.data, []int{64 << 10}, false))
	b.Run("strings-chunked64k-hinted", stream(runs.data, []int{64 << 10}, true))
	b.Run("strings-runs", stream(runs.data, runs.sizes, false))
	b.Run("strings-buffered", buffered(runs.data))
}
