package dataset

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/synth"
)

// chunkReader yields data in fixed-size reads to exercise chunk
// boundaries inside the streaming featuriser.
type chunkReader struct {
	data []byte
	size int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.size
	if n > len(r.data) {
		n = len(r.data)
	}
	if n > len(p) {
		n = len(p)
	}
	n = copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// TestFromReaderMatchesFromBinary is the streaming-vs-buffered
// featuriser differential over a whole synthetic corpus, including
// stripped binaries, at several read-chunk sizes: FromReader, and the
// whole-buffer FromBinary, against the buffered test oracle.
func TestFromReaderMatchesFromBinary(t *testing.T) {
	c, err := synth.Generate([]synth.ClassSpec{
		{Name: "AppA", Samples: 4},
		{Name: "AppS", Samples: 2},
	}, synth.Options{Seed: 7, StrippedFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Samples {
		src := &c.Samples[i]
		want, err := fromBinaryOracle(src.Class, src.Version, src.Exe, src.Binary)
		if err != nil {
			t.Fatalf("fromBinaryOracle(%s): %v", src.Exe, err)
		}
		if got, err := FromBinary(src.Class, src.Version, src.Exe, src.Binary); err != nil || got != want {
			t.Fatalf("FromBinary(%s) = %+v, %v\nwant %+v", src.Exe, got, err, want)
		}
		for _, size := range []int{1, 7, 4096, 1 << 20} {
			got, info, err := FromReader(src.Class, src.Version, src.Exe,
				&chunkReader{data: src.Binary, size: size}, 0)
			if err != nil {
				t.Fatalf("FromReader(%s, chunk %d): %v", src.Exe, size, err)
			}
			if !info.Complete {
				t.Fatalf("FromReader(%s, chunk %d): unexpectedly truncated", src.Exe, size)
			}
			if info.Bytes != int64(len(src.Binary)) {
				t.Fatalf("FromReader(%s): consumed %d bytes, want %d", src.Exe, info.Bytes, len(src.Binary))
			}
			if got != want {
				t.Fatalf("FromReader(%s, chunk %d) mismatch:\n got %+v\nwant %+v", src.Exe, size, got, want)
			}
		}
		// A bytes.Reader reports its length, which FromReader passes
		// to the file hasher as a hint.
		got, _, err := FromReader(src.Class, src.Version, src.Exe, bytes.NewReader(src.Binary), 0)
		if err != nil {
			t.Fatalf("FromReader(%s, length known): %v", src.Exe, err)
		}
		if got != want {
			t.Fatalf("FromReader(%s, length known) mismatch:\n got %+v\nwant %+v", src.Exe, got, want)
		}
	}
}

// lenReader reports a length of its choosing, which may be wrong.
type lenReader struct {
	io.Reader
	n int
}

func (r lenReader) Len() int { return r.n }

// TestFromReaderWrongLength checks that a reader whose Len does not
// match the bytes it delivers fails the extraction instead of yielding
// a file digest of other bytes.
func TestFromReaderWrongLength(t *testing.T) {
	samples, err := synth.GenerateOne(
		synth.ClassSpec{Name: "L", Samples: 1}, synth.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	bin := samples[0].Binary
	for _, n := range []int{len(bin) - 1, len(bin) + 1} {
		if _, _, err := FromReader("", "", "x", lenReader{bytes.NewReader(bin), n}, 0); err == nil {
			t.Fatalf("Len %d for a %d-byte input: FromReader succeeded", n, len(bin))
		}
	}
}

// TestFromReaderSpillTruncation checks that an input exceeding the
// spill bound still yields exact single-pass features, zero structural
// digests and Complete=false.
func TestFromReaderSpillTruncation(t *testing.T) {
	samples, err := synth.GenerateOne(
		synth.ClassSpec{Name: "Big", Samples: 1}, synth.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bin := samples[0].Binary
	want, err := fromBinaryOracle("", "", "big", bin)
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := FromReader("", "", "big", bytes.NewReader(bin), len(bin)/2)
	if err != nil {
		t.Fatalf("FromReader: %v", err)
	}
	if info.Complete {
		t.Fatal("spill-exceeding input reported Complete")
	}
	if got.SHA256 != want.SHA256 {
		t.Error("SHA256 differs under truncation")
	}
	if got.Digests[FeatureFile] != want.Digests[FeatureFile] {
		t.Error("file digest differs under truncation")
	}
	if got.Digests[FeatureStrings] != want.Digests[FeatureStrings] {
		t.Error("strings digest differs under truncation")
	}
	if !got.Digests[FeatureSymbols].IsZero() || !got.Digests[FeatureNeeded].IsZero() {
		t.Error("structural digests present despite truncation")
	}
	// The exact spill bound must not truncate.
	_, info, err = FromReader("", "", "big", bytes.NewReader(bin), len(bin))
	if err != nil || !info.Complete {
		t.Fatalf("exact-bound spill: complete=%v err=%v", info.Complete, err)
	}
}

// TestFromReaderRejectsNonELF checks the early abort: the magic is
// checked as soon as four bytes arrive and the rest stays unread.
func TestFromReaderRejectsNonELF(t *testing.T) {
	r := &chunkReader{data: []byte("#!/bin/sh\necho hello, much more script follows here"), size: 16}
	if _, _, err := FromReader("", "", "x", r, 0); err == nil {
		t.Fatal("FromReader accepted a shell script")
	}
	if len(r.data) == 0 {
		t.Fatal("non-ELF stream was consumed to the end")
	}
	// Short and empty inputs are rejected, not hashed.
	if _, _, err := FromReader("", "", "x", strings.NewReader("\x7fE"), 0); err == nil {
		t.Fatal("FromReader accepted a 2-byte input")
	}
	if _, _, err := FromReader("", "", "x", strings.NewReader(""), 0); err == nil {
		t.Fatal("FromReader accepted an empty input")
	}
}

// TestFromReaderReadError propagates reader failures.
func TestFromReaderReadError(t *testing.T) {
	r := io.MultiReader(strings.NewReader("\x7fELF junk"), errorReader{})
	if _, _, err := FromReader("", "", "x", r, 0); err == nil {
		t.Fatal("read error not propagated")
	}
}

type errorReader struct{}

func (errorReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

// BenchmarkFromReader measures the featuriser on a bytes.Reader and,
// as buffered, through FromBinary, the whole-buffer call into it. As
// cold1MiB it takes the shape of a never-seen upload: a synthetic ELF
// image padded to 1 MiB with a seeded random tail, hinted by the
// bytes.Reader's length as a request body is by its Content-Length.
func BenchmarkFromReader(b *testing.B) {
	samples, err := synth.GenerateOne(
		synth.ClassSpec{Name: "B", Samples: 1}, synth.Options{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	bin := samples[0].Binary
	b.Run("streaming", func(b *testing.B) {
		b.SetBytes(int64(len(bin)))
		b.ReportAllocs()
		r := bytes.NewReader(bin)
		for i := 0; i < b.N; i++ {
			r.Reset(bin)
			if _, _, err := FromReader("", "", "x", r, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("buffered", func(b *testing.B) {
		b.SetBytes(int64(len(bin)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := FromBinary("", "", "x", bin); err != nil {
				b.Fatal(err)
			}
		}
	})
	cold := make([]byte, 1<<20)
	rand.New(rand.NewSource(2)).Read(cold[copy(cold, bin):])
	b.Run("cold1MiB", func(b *testing.B) {
		b.SetBytes(int64(len(cold)))
		b.ReportAllocs()
		r := bytes.NewReader(cold)
		for i := 0; i < b.N; i++ {
			r.Reset(cold)
			if _, _, err := FromReader("", "", "x", r, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
