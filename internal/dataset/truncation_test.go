package dataset

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/synth"
)

// failAfterReader yields data, then fails with err instead of EOF —
// a connection dropped mid-upload.
type failAfterReader struct {
	data []byte
	err  error
}

func (r *failAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func oneBinary(t *testing.T) []byte {
	t.Helper()
	samples, err := synth.GenerateOne(
		synth.ClassSpec{Name: "Trunc", Samples: 1}, synth.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return samples[0].Binary
}

// TestFromReaderMidStreamError pins the failure contract for a stream
// that dies after the ELF magic: the error is surfaced (wrapped, with
// the sample path named), never a silent partial sample.
func TestFromReaderMidStreamError(t *testing.T) {
	bin := oneBinary(t)
	broken := errors.New("connection reset mid-upload")
	for _, prefix := range []int{4, 100, len(bin) - 1} {
		_, info, err := FromReader("", "", "dying", &failAfterReader{data: bin[:prefix], err: broken}, 0)
		if err == nil {
			t.Fatalf("prefix %d: mid-stream error swallowed", prefix)
		}
		if !errors.Is(err, broken) {
			t.Fatalf("prefix %d: error %v does not wrap the reader's", prefix, err)
		}
		if !strings.Contains(err.Error(), "dying") {
			t.Fatalf("prefix %d: error %v does not name the sample", prefix, err)
		}
		if info.Bytes != int64(prefix) {
			t.Fatalf("prefix %d: consumed %d bytes", prefix, info.Bytes)
		}
	}
	// An error before the magic resolves is still the reader's error,
	// not a bogus not-an-ELF verdict.
	_, _, err := FromReader("", "", "dying", &failAfterReader{data: bin[:2], err: broken}, 0)
	if !errors.Is(err, broken) {
		t.Fatalf("sub-magic stream error: %v", err)
	}
}

// TestFromReaderShortInputs: zero-length and sub-magic streams are
// rejected as non-ELF with every byte accounted for.
func TestFromReaderShortInputs(t *testing.T) {
	magic := []byte{0x7f, 'E', 'L'}
	for _, n := range []int{0, 1, 2, 3} {
		data := magic[:n]
		_, info, err := FromReader("", "", "tiny", bytes.NewReader(data), 0)
		if err == nil || !strings.Contains(err.Error(), "not an ELF") {
			t.Fatalf("%d-byte input: err = %v, want not-an-ELF", n, err)
		}
		if info.Bytes != int64(len(data)) {
			t.Fatalf("%d-byte input: consumed %d", n, info.Bytes)
		}
	}
}

// TestFromReaderSpillBoundary walks the exact edge of the spill bound:
// len(bin) is complete, len(bin)-1 is truncated, and the two agree on
// every single-pass feature.
func TestFromReaderSpillBoundary(t *testing.T) {
	bin := oneBinary(t)
	at, atInfo, err := FromReader("", "", "edge", bytes.NewReader(bin), len(bin))
	if err != nil {
		t.Fatal(err)
	}
	if !atInfo.Complete {
		t.Fatal("input exactly at the spill bound reported truncated")
	}
	under, underInfo, err := FromReader("", "", "edge", bytes.NewReader(bin), len(bin)-1)
	if err != nil {
		t.Fatal(err)
	}
	if underInfo.Complete {
		t.Fatal("input one byte over the spill bound reported complete")
	}
	if under.SHA256 != at.SHA256 ||
		under.Digests[FeatureFile] != at.Digests[FeatureFile] ||
		under.Digests[FeatureStrings] != at.Digests[FeatureStrings] {
		t.Fatal("single-pass features differ across the spill boundary")
	}
	if !under.Digests[FeatureSymbols].IsZero() || !under.Digests[FeatureNeeded].IsZero() {
		t.Fatal("structural digests present despite truncation")
	}
	// The truncated pass must not have left a poisoned spill buffer
	// behind in the pool: a following complete extraction is exact.
	again, info, err := FromReader("", "", "edge", bytes.NewReader(bin), 0)
	if err != nil || !info.Complete {
		t.Fatalf("post-truncation extraction: complete=%v err=%v", info.Complete, err)
	}
	if again != at {
		t.Fatal("extraction after a truncated one diverged")
	}
}

// TestFromReaderErrorDoesNotPoisonPool: a failed extraction returns its
// pooled scratch state; the next extraction must be exact.
func TestFromReaderErrorDoesNotPoisonPool(t *testing.T) {
	bin := oneBinary(t)
	want, err := fromBinaryOracle("", "", "x", bin)
	if err != nil {
		t.Fatal(err)
	}
	broken := errors.New("boom")
	for i := 0; i < 4; i++ {
		_, _, _ = FromReader("", "", "x", &failAfterReader{data: bin[:64], err: broken}, 0)
		got, info, err := FromReader("", "", "x", bytes.NewReader(bin), 0)
		if err != nil || !info.Complete {
			t.Fatalf("round %d: complete=%v err=%v", i, info.Complete, err)
		}
		if got != want {
			t.Fatalf("round %d: extraction after failed stream diverged", i)
		}
	}
}
