package core

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic pins the write discipline artifacts, the
// retraining store and its latest pointer share: a failing writer
// leaves the target absent (or unchanged) and no temporary file
// behind, and a successful write round-trips.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "latest")
	boom := errors.New("disk full")
	failing := func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	}
	leftovers := func() {
		t.Helper()
		tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(tmps) != 0 {
			t.Fatalf("temporary files left behind: %v", tmps)
		}
	}

	if err := WriteFileAtomic(path, failing); !errors.Is(err, boom) {
		t.Fatalf("failing write returned %v, want %v", err, boom)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failing write created the target: %v", err)
	}
	leftovers()

	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := WriteFileAtomic(path, write("model-1.json\n")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "model-1.json\n" {
		t.Fatalf("round trip read %q, %v", got, err)
	}
	leftovers()

	if err := WriteFileAtomic(path, failing); !errors.Is(err, boom) {
		t.Fatalf("failing overwrite returned %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "model-1.json\n" {
		t.Fatalf("failing overwrite changed the target to %q, %v", got, err)
	}
	leftovers()

	if err := WriteFileAtomic(path, write("model-2.json\n")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "model-2.json\n" {
		t.Fatalf("overwrite read %q, %v", got, err)
	}
	leftovers()
}
