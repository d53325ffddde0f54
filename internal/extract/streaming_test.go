package extract

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// streamText runs data through a StringStreamer in the given chunk
// sizes (cycling) and returns the emitted stream.
func streamText(t testing.TB, data []byte, minLen int, sizes []int) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := NewStringStreamer(&buf, minLen)
	rest := data
	for i := 0; len(rest) > 0; i++ {
		n := sizes[i%len(sizes)]
		if n <= 0 {
			n = 1
		}
		if n > len(rest) {
			n = len(rest)
		}
		if _, err := s.Write(rest[:n]); err != nil {
			t.Fatalf("Write: %v", err)
		}
		rest = rest[n:]
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if s.Emitted() != int64(buf.Len()) {
		t.Fatalf("Emitted %d != buffered %d", s.Emitted(), buf.Len())
	}
	return buf.Bytes()
}

// TestStringStreamerMatchesBuffered is the streaming-vs-buffered
// differential over structured inputs, chunk sizes, and minLen values:
// the StringStreamer, and StringsText, against the buffered test oracle.
func TestStringStreamerMatchesBuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(0xf4c))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	inputs := map[string][]byte{
		"empty":          {},
		"all-printable":  bytes.Repeat([]byte("printable text without breaks "), 200),
		"all-binary":     bytes.Repeat([]byte{0x00, 0xff, 0x01}, 500),
		"mixed":          []byte("ab\x00hello\x01hi\x02world wide\xffx"),
		"short-runs":     bytes.Repeat([]byte("abc\x00"), 300),
		"boundary-exact": []byte("abcd\x00abc\x00abcde"),
		"tabs":           []byte("a\tb\tc\td\x00\t\t\t\t\x00"),
		"random-64k":     random(64 << 10),
		"trailing-run":   append(random(100), []byte("final printable tail")...),
	}
	chunkings := [][]int{{1 << 30}, {1}, {2, 3, 1, 5}, {7, 113, 1, 4096}}
	for name, data := range inputs {
		for _, minLen := range []int{0, 1, 2, 4, 8} {
			want := stringsTextOracle(data, minLen)
			if got := StringsText(data, minLen); !bytes.Equal(got, want) {
				t.Fatalf("%s/minLen=%d: StringsText %q != buffered %q", name, minLen, got, want)
			}
			for ci, sizes := range chunkings {
				got := streamText(t, data, minLen, sizes)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/minLen=%d/chunking=%d: streaming %q != buffered %q",
						name, minLen, ci, got, want)
				}
			}
		}
	}
}

// TestStringStreamerReset checks pooled reuse: a Reset streamer must
// behave exactly like a fresh one, without reallocating its hold-back
// buffer.
func TestStringStreamerReset(t *testing.T) {
	var buf bytes.Buffer
	s := NewStringStreamer(&buf, 4)
	s.Write([]byte("first input with text\x00tail"))
	s.Close()
	buf.Reset()
	s.Reset(&buf, 4)
	data := []byte("ab\x00second round text\x01xy")
	s.Write(data)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if want := stringsTextOracle(data, 4); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("after Reset: %q != %q", buf.Bytes(), want)
	}
}

// failWriter errors after accepting a prefix.
type failWriter struct{ left int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, errors.New("disk full")
	}
	w.left -= len(p)
	return len(p), nil
}

// TestStringStreamerStickyError checks downstream errors surface and
// stick.
func TestStringStreamerStickyError(t *testing.T) {
	s := NewStringStreamer(&failWriter{left: 8}, 4)
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		_, err = s.Write([]byte("plenty of printable text flowing through"))
	}
	if err == nil {
		t.Fatal("downstream error never surfaced")
	}
	if _, err2 := s.Write([]byte("more")); err2 != err {
		t.Fatalf("error not sticky: %v vs %v", err2, err)
	}
	if cerr := s.Close(); cerr != err {
		t.Fatalf("Close error: %v, want %v", cerr, err)
	}
}

// TestStringStreamerZeroAlloc proves the scanner itself does not
// allocate per chunk once constructed.
func TestStringStreamerZeroAlloc(t *testing.T) {
	data := make([]byte, 32<<10)
	rand.New(rand.NewSource(11)).Read(data)
	s := NewStringStreamer(discardWriter{}, 0)
	allocs := testing.AllocsPerRun(10, func() {
		s.Reset(discardWriter{}, 0)
		s.Write(data)
		s.Close()
	})
	if allocs != 0 {
		t.Fatalf("streamer allocates %v times per input", allocs)
	}
}

// discardWriter is io.Discard without the interface-conversion
// allocation noise in AllocsPerRun loops.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// blockEdgeInputs returns inputs for the 64-byte block scan: runs that
// end at a block's bit 63 or 0, a run that spans blocks, all-printable
// blocks, and the bytes either side of each printable boundary.
func blockEdgeInputs() map[string][]byte {
	block := func(fill byte, n int) []byte { return bytes.Repeat([]byte{fill}, n) }
	edges := []byte{0x09, 0x1f, 0x20, 0x7e, 0x7f, 0x80, 0x89, 0xa0, 0xff}
	// Each edge byte at every position of a printable block.
	var swar []byte
	for i, c := range edges {
		b := block('a'+byte(i), 64)
		for j := i; j < 64; j += len(edges) {
			b[j] = c
		}
		swar = append(swar, b...)
	}
	// Runs of every length up to past a block, each ended by a zero.
	var lengths []byte
	for n := 1; n <= 70; n++ {
		lengths = append(append(lengths, block('L', n)...), 0)
	}
	return map[string][]byte{
		"every-length": lengths,
		// A run from bit 60 to bit 63, then one ending at the next
		// block's bit 0.
		"run-to-bit-63": append(append(block(0, 60), "abcd"...), block(0, 68)...),
		"run-to-bit-0":  append(append(block(0, 61), "abcd"...), block(0, 67)...),
		// A short run at a block's top that the next block confirms.
		"short-top":    append(append(block(0, 62), "ab\tc"...), block(0xff, 64)...),
		"spanning":     append(append(block(0, 40), block('x', 150)...), block(0, 40)...),
		"printable":    block('p', 256),
		"swar-edges":   swar,
		"mixed-blocks": bytes.Repeat([]byte("word\x00tab\there\x7fok12\xa0\x1f run"), 16),
	}
}

// TestStringStreamerBlockEdges runs the block-edge inputs through the
// streamer at minLen 1, 3, 4, 5, 63, 64 and 65 (the last past the block
// scan) against the buffered test oracle, in whole and in split writes.
func TestStringStreamerBlockEdges(t *testing.T) {
	chunkings := [][]int{{1 << 30}, {1}, {64}, {63, 65}, {100, 28}, {130, 3, 300}}
	for name, data := range blockEdgeInputs() {
		if len(data) < 128 {
			t.Fatalf("%s: %d bytes, want at least two blocks", name, len(data))
		}
		for _, minLen := range []int{1, 3, 4, 5, 63, 64, 65} {
			want := stringsTextOracle(data, minLen)
			for ci, sizes := range chunkings {
				if got := streamText(t, data, minLen, sizes); !bytes.Equal(got, want) {
					t.Fatalf("%s/minLen=%d/chunking=%d: streaming %q != buffered %q",
						name, minLen, ci, got, want)
				}
			}
		}
	}
}

// TestPrintMask checks the block scan's word-parallel printable test
// against printTab for every byte value at every position of a block.
func TestPrintMask(t *testing.T) {
	var b [64]byte
	for c := range 256 {
		for j := range b {
			for k := range b {
				b[k] = 'a'
			}
			b[j] = byte(c)
			want := ^uint64(0)
			if printTab[c] == 0 {
				want &^= 1 << j
			}
			if got := printMask(b[:]); got != want {
				t.Fatalf("byte %#02x at %d: mask %#x, want %#x", c, j, got, want)
			}
		}
	}
}

// FuzzStringStreamerMatchesBuffered fuzzes the differential against the
// buffered test oracle: arbitrary bytes, arbitrary chunk boundaries,
// arbitrary minLen, and the whole-buffer StringsText. The chunk seed
// picks writes of 1 to 300 bytes, so both the byte loop and the 64-byte
// block scan meet every kind of boundary.
func FuzzStringStreamerMatchesBuffered(f *testing.F) {
	f.Add([]byte("hello\x00world wide web\x01x"), uint64(1), 4)
	f.Add(bytes.Repeat([]byte("ab\x00"), 100), uint64(0x123456789abcdef0), 2)
	f.Add([]byte("entirely printable input with no separators at all"), uint64(3), 0)
	edges := blockEdgeInputs()
	for _, name := range slices.Sorted(maps.Keys(edges)) {
		data := edges[name]
		f.Add(data, uint64(0xcdef), 4)
		f.Add(data, uint64(0xfedcba9876543210), 1)
		f.Add(data, uint64(0xe), 64)
	}
	sizes := [16]int{1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 63, 64, 65, 127, 129, 300}
	f.Fuzz(func(t *testing.T, data []byte, chunkSeed uint64, minLen int) {
		if minLen < 0 || minLen > 80 {
			return
		}
		want := stringsTextOracle(data, minLen)
		if got := StringsText(data, minLen); !bytes.Equal(got, want) {
			t.Fatalf("StringsText %q != buffered %q (minLen %d)", got, want, minLen)
		}
		var buf bytes.Buffer
		s := NewStringStreamer(&buf, minLen)
		rest := data
		for i := 0; len(rest) > 0; i++ {
			n := min(sizes[chunkSeed>>((i%16)*4)&0xf], len(rest))
			s.Write(rest[:n])
			rest = rest[n:]
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("streaming %q != buffered %q (seed %#x, minLen %d)",
				buf.Bytes(), want, chunkSeed, minLen)
		}
	})
}
