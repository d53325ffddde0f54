package dataset

import (
	"io"
	"testing"

	"repro/internal/elfgen"
	"repro/internal/extract"
	"repro/internal/synth"
)

// seedReader yields data in reads whose sizes come from the nibbles of
// seed, cycling: 1..12 bytes, then 1, 4, 16 and 64 KiB.
type seedReader struct {
	data []byte
	seed uint64
	i    int
}

func (r *seedReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	nib := int(r.seed >> ((r.i % 16) * 4) & 0xf)
	r.i++
	n := nib + 1
	if nib >= 12 {
		n = 1 << (10 + 2*(nib-12))
	}
	n = copy(p, r.data[:min(n, len(r.data))])
	r.data = r.data[n:]
	return n, nil
}

// fuzzSeedBinaries returns generated ELF images covering the sample
// shapes: dynamically linked with symbols, stripped, and a static
// binary with no DT_NEEDED entries.
func fuzzSeedBinaries(f *testing.F) [][]byte {
	f.Helper()
	c, err := synth.Generate([]synth.ClassSpec{{Name: "Fuzz", Samples: 3}},
		synth.Options{Seed: 5, StrippedFraction: 0.5})
	if err != nil {
		f.Fatal(err)
	}
	var bins [][]byte
	stripped := false
	for _, s := range c.Samples {
		bins = append(bins, s.Binary)
		stripped = stripped || s.Stripped
	}
	if !stripped {
		f.Fatal("seed corpus has no stripped binary")
	}
	static, err := elfgen.Build(&elfgen.Spec{
		Text:   []byte("\x55\x48\x89\xe5static code body\xc3"),
		ROData: []byte("usage: static-tool [options]\x00"),
		Symbols: []elfgen.Symbol{
			{Name: "main", Global: true, Type: elfgen.Func, Section: elfgen.Text, Size: 8},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	return append(bins, static)
}

// FuzzFromReaderMatchesOracle is the extraction differential: for
// arbitrary (mostly mutated ELF) inputs, read in chunk sizes drawn from
// the seed, through a reader that reports its length and one that does
// not, FromReader must agree with the buffered fromBinaryOracle. The
// spill bound straddles the input length, so both sides of it run: a
// complete extraction must equal the oracle's sample, error included;
// a truncated one must carry the oracle's single-pass features and no
// structural ones.
func FuzzFromReaderMatchesOracle(f *testing.F) {
	for i, bin := range fuzzSeedBinaries(f) {
		f.Add(bin, uint64(0x9e3779b97f4a7c15)*uint64(i+1))
	}
	f.Fuzz(func(t *testing.T, bin []byte, seed uint64) {
		const class, version, exe = "C", "v", "x"
		want, wantErr := fromBinaryOracle(class, version, exe, bin)
		// The top byte places the spill bound within 8 bytes of the
		// input length; a bound <= 0 selects the default.
		maxSpill := len(bin) + int(seed>>56)%17 - 8
		truncated := maxSpill > 0 && len(bin) > maxSpill
		for _, known := range []bool{false, true} {
			var r io.Reader = &seedReader{data: bin, seed: seed}
			if known {
				r = lenReader{r, len(bin)}
			}
			got, info, err := FromReader(class, version, exe, r, maxSpill)
			switch {
			case !extract.IsELF(bin):
				if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
					t.Fatalf("non-ELF input (len known %v): error %v, oracle %v", known, err, wantErr)
				}
			case !truncated:
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("len known %v, spill %d: error %v, oracle %v", known, maxSpill, err, wantErr)
				}
				if err == nil && (got != want || !info.Complete || info.Bytes != int64(len(bin))) {
					t.Fatalf("len known %v, spill %d: %+v (%+v)\noracle %+v", known, maxSpill, got, info, want)
				}
			default:
				if err != nil || info.Complete || info.Bytes != int64(len(bin)) {
					t.Fatalf("len known %v, spill %d of %d bytes: %+v, %v", known, maxSpill, len(bin), info, err)
				}
				// The oracle fills the single-pass features before it
				// parses the ELF structure, so they stand even where
				// that parse failed.
				if got.SHA256 != want.SHA256 ||
					got.Digests[FeatureFile] != want.Digests[FeatureFile] ||
					got.Digests[FeatureStrings] != want.Digests[FeatureStrings] {
					t.Fatalf("len known %v, spill %d: single-pass features %+v, oracle %+v", known, maxSpill, got, want)
				}
				if got.Stripped || !got.Digests[FeatureSymbols].IsZero() || !got.Digests[FeatureNeeded].IsZero() {
					t.Fatalf("len known %v, spill %d: structural features despite truncation: %+v", known, maxSpill, got)
				}
			}
		}
	})
}
