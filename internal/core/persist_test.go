package core

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
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

// mallocs returns the heap allocations f makes.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestFirstFeaturizeAfterLoadAllocs: Load returns with the serving state
// built, so the first Featurize after it allocates no more than a steady
// one. The steady calls run with the indexes' query-scratch pools
// emptied by two collections, so both sides lease their scratch cold;
// an index build left to the first call costs its allocations on top.
func TestFirstFeaturizeAfterLoadAllocs(t *testing.T) {
	s := &loadFixtureSamples(t)[0]
	clf, err := LoadFile("testdata/model_v2_rf.json")
	if err != nil {
		t.Fatal(err)
	}
	first := mallocs(func() { clf.Featurize(s) })
	var steady uint64
	for range 5 {
		runtime.GC()
		runtime.GC()
		steady = max(steady, mallocs(func() { clf.Featurize(s) }))
	}
	if first > steady {
		t.Fatalf("first Featurize after Load made %d allocations, a steady one %d", first, steady)
	}
}

// TestConcurrentFirstClassifyAfterLoad races the first classifications
// of a freshly loaded model from several goroutines, the requests that
// follow a model swap: each must answer exactly as a warmed-up copy of
// the model does. Run it under -race.
func TestConcurrentFirstClassifyAfterLoad(t *testing.T) {
	samples := loadFixtureSamples(t)
	ref, err := LoadFile("testdata/model_v2_rf.json")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Prediction, len(samples))
	for i := range samples {
		want[i] = ref.Classify(&samples[i])
	}
	clf, err := LoadFile("testdata/model_v2_rf.json")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range samples {
				i := (j + g) % len(samples)
				if got := clf.Classify(&samples[i]); got != want[i] {
					t.Errorf("goroutine %d sample %d: %+v, warmed-up model %+v", g, i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
