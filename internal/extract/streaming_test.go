package extract

import (
	"bytes"
	"errors"
	"math/rand"
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

// FuzzStringStreamerMatchesBuffered fuzzes the differential against the
// buffered test oracle: arbitrary bytes, arbitrary chunk boundaries,
// arbitrary minLen, and the whole-buffer StringsText.
func FuzzStringStreamerMatchesBuffered(f *testing.F) {
	f.Add([]byte("hello\x00world wide web\x01x"), uint64(1), 4)
	f.Add(bytes.Repeat([]byte("ab\x00"), 100), uint64(0x123456789abcdef0), 2)
	f.Add([]byte("entirely printable input with no separators at all"), uint64(3), 0)
	f.Fuzz(func(t *testing.T, data []byte, chunkSeed uint64, minLen int) {
		if minLen < 0 || minLen > 64 {
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
			n := int(chunkSeed>>((i%16)*4)&0xf) + 1
			if n > len(rest) {
				n = len(rest)
			}
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
