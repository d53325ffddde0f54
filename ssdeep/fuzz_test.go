package ssdeep

import (
	"bytes"
	"maps"
	"slices"
	"testing"
)

// FuzzParse feeds arbitrary text to the digest parser: it must never
// panic, and anything it accepts must round trip.
func FuzzParse(f *testing.F) {
	f.Add("3:abc:def")
	f.Add("96:QcPICzcyxOK7gfp1RNuZBevzxHU8nEksG2:VxbxQ/Zvu8nP92")
	f.Add("::")
	f.Add("3::")
	f.Add("18446744073709551616:a:b")
	f.Fuzz(func(t *testing.T, s string) {
		d, err := Parse(s)
		if err != nil {
			return
		}
		back, err := Parse(d.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", d.String(), s, err)
		}
		if back != d {
			t.Fatalf("round trip changed digest: %v vs %v", back, d)
		}
		// Accepted digests must be comparable without panicking.
		if score := Compare(d, d); score < 0 || score > 100 {
			t.Fatalf("self-comparison of %q = %d", s, score)
		}
	})
}

// FuzzHashStreamingMatchesBytes is the streaming differential: across
// arbitrary inputs and arbitrary chunk boundaries — one-byte writes
// included — the streaming Hasher must produce a digest bit-identical
// to the buffered hashBytesOracle, with and without a declared length,
// and so must HashBytes.
func FuzzHashStreamingMatchesBytes(f *testing.F) {
	f.Add([]byte("hello world, this is a seed input for fuzzing"), uint64(1))
	f.Add(bytes.Repeat([]byte{0xaa, 0x55}, 600), uint64(0x0102030405060708))
	// All-zero inputs have no trigger points at any block size, forcing
	// the block-size-halving retry all the way down to MinBlockSize.
	f.Add(make([]byte, 4096), uint64(7))
	f.Add(append(make([]byte, 2000), []byte("entropy tail after a long quiet run")...), uint64(3))
	// Large writes: contexts retire inside one Write, not between two.
	f.Add(bytes.Repeat([]byte("0123456789abcdefghijklmnopqrstuvwxyz\x00\xff"), 3000), uint64(0xfedcba9876543210))
	// Real binary shapes: ELF images and their strings and symbol texts.
	synthSeeds := synthInputs(f)
	for i, name := range slices.Sorted(maps.Keys(synthSeeds)) {
		f.Add(synthSeeds[name], uint64(0x9e3779b97f4a7c15)*uint64(i+1))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunkSeed uint64) {
		if len(data) == 0 {
			return
		}
		want, err := hashBytesOracle(data)
		if err != nil {
			t.Fatalf("hashBytesOracle(%d bytes): %v", len(data), err)
		}
		if got, err := HashBytes(data); err != nil || got != want {
			t.Fatalf("HashBytes %q (%v) != oracle %q (%d bytes)", got, err, want, len(data))
		}
		h := NewHasher()
		defer h.Release()
		for _, hinted := range []bool{false, true} {
			h.Reset()
			if hinted {
				h.SetTotalLength(int64(len(data)))
			}
			// Chunk sizes derived from the seed nibbles: 1..12 bytes,
			// then 1, 4, 16 and 64 KiB, the size dataset.FromReader
			// writes, so the fuzzer explores boundary placement as well
			// as content.
			rest := data
			for i := 0; len(rest) > 0; i++ {
				nib := int(chunkSeed >> ((i % 16) * 4) & 0xf)
				n := nib + 1
				if nib >= 12 {
					n = 1 << (10 + 2*(nib-12))
				}
				n = min(n, len(rest))
				h.Write(rest[:n])
				rest = rest[n:]
			}
			got, err := h.Sum()
			if err != nil {
				t.Fatalf("Sum (hinted %v): %v", hinted, err)
			}
			if got != want {
				t.Fatalf("streaming %q != buffered %q (hinted %v, seed %#x, %d bytes)",
					got, want, hinted, chunkSeed, len(data))
			}
		}
		// One-byte writes through a reused hasher must agree too.
		h.Reset()
		for _, c := range data {
			h.Write([]byte{c})
		}
		got, err := h.Sum()
		if err != nil {
			t.Fatalf("Sum (1-byte writes): %v", err)
		}
		if got != want {
			t.Fatalf("1-byte streaming %q != buffered %q", got, want)
		}
	})
}

// FuzzHashCompare hashes arbitrary inputs and mutations of them: scores
// must stay within bounds, self-similarity must be 100, and hashing must
// be deterministic.
func FuzzHashCompare(f *testing.F) {
	f.Add([]byte("hello world, this is a seed input for fuzzing"), uint8(3))
	f.Add(bytes.Repeat([]byte{0xaa, 0x55}, 600), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, flips uint8) {
		if len(data) == 0 {
			return
		}
		d1, err := HashBytes(data)
		if err != nil {
			t.Fatalf("HashBytes(%d bytes): %v", len(data), err)
		}
		d2, err := HashBytes(data)
		if err != nil || d1 != d2 {
			t.Fatalf("hashing not deterministic: %v vs %v (%v)", d1, d2, err)
		}
		if got := Compare(d1, d2); got != 100 {
			t.Fatalf("self-similarity = %d", got)
		}
		mut := append([]byte(nil), data...)
		for i := 0; i < int(flips); i++ {
			mut[(i*131)%len(mut)] ^= byte(i + 1)
		}
		dm, err := HashBytes(mut)
		if err != nil {
			t.Fatal(err)
		}
		s1, s2 := Compare(d1, dm), Compare(dm, d1)
		if s1 != s2 {
			t.Fatalf("asymmetric score %d vs %d", s1, s2)
		}
		if s1 < 0 || s1 > 100 {
			t.Fatalf("score out of range: %d", s1)
		}
	})
}
