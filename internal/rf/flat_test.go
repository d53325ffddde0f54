package rf

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

// TestFlatMatchesOracle holds the flattened inference path to the
// pointer-walking oracle bit for bit: same splits, same leaf payloads,
// same accumulation order, so even float equality is exact.
func TestFlatMatchesOracle(t *testing.T) {
	X, y := blobs(13, 60)
	f, err := Train(X, y, 3, Params{NumTrees: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		flat := f.PredictProba(X[i])
		oracle := f.predictProbaOracle(X[i])
		for c := range oracle {
			if flat[c] != oracle[c] {
				t.Fatalf("sample %d class %d: flat %v != oracle %v", i, c, flat[c], oracle[c])
			}
		}
	}
}

// TestFlatMatchesOracleProperty repeats the differential check over
// random training problems, including degenerate single-split forests.
func TestFlatMatchesOracleProperty(t *testing.T) {
	prop := func(seed uint64, nSel, dSel, cSel uint8) bool {
		X, y, numClasses := randomProblem(seed, nSel, dSel, cSel)
		forest, err := Train(X, y, numClasses, Params{NumTrees: 5, Seed: seed})
		if err != nil {
			return singleClass(y)
		}
		for i := range X {
			flat := forest.PredictProba(X[i])
			oracle := forest.predictProbaOracle(X[i])
			for c := range oracle {
				if flat[c] != oracle[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFlatAfterJSONRoundTrip proves a persisted forest re-flattens on
// load to the same predictions — the artifact format carries only the
// pointer trees.
func TestFlatAfterJSONRoundTrip(t *testing.T) {
	X, y := blobs(17, 40)
	f, err := Train(X, y, 3, Params{NumTrees: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Forest
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	for i := range X {
		got := loaded.PredictProba(X[i])
		want := f.predictProbaOracle(X[i])
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("sample %d class %d: loaded flat %v != oracle %v", i, c, got[c], want[c])
			}
		}
	}
}

// TestBatchTinyBatches exercises the worker clamp: batches far smaller
// than the requested worker count must still match the single-sample
// path exactly.
func TestBatchTinyBatches(t *testing.T) {
	X, y := blobs(19, 30)
	f, err := Train(X, y, 3, Params{NumTrees: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 2, 3} {
		batch := f.PredictProbaBatch(X[:n], 128)
		if len(batch) != n {
			t.Fatalf("batch of %d returned %d rows", n, len(batch))
		}
		for i := 0; i < n; i++ {
			single := f.PredictProba(X[i])
			for c := range single {
				if batch[i][c] != single[c] {
					t.Fatalf("tiny batch %d sample %d differs from single path", n, i)
				}
			}
		}
	}
}

func BenchmarkPredictProbaOracle(b *testing.B) {
	X, y := blobs(21, 70)
	f, err := Train(X, y, 3, Params{NumTrees: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.predictProbaOracle(X[i%len(X)])
	}
}

func BenchmarkPredictProbaBatch(b *testing.B) {
	X, y := blobs(21, 70)
	f, err := Train(X, y, 3, Params{NumTrees: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictProbaBatch(X, 0)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(X)), "samples/op")
}
