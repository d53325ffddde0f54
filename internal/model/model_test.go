package model

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/knn"
	"repro/internal/rf"
	"repro/internal/rng"
	"repro/internal/svm"
)

// testData builds a deterministic similarity-feature-shaped matrix:
// values on 0..100, three separable-ish classes.
func testData() (X [][]float64, y []int, numClasses int) {
	src := rng.New(3)
	const n, dim = 60, 9
	numClasses = 3
	X = make([][]float64, n)
	y = make([]int, n)
	for i := range X {
		cls := i % numClasses
		y[i] = cls
		row := make([]float64, dim)
		for d := range row {
			row[d] = src.Float64() * 30
			if d%numClasses == cls {
				row[d] += 60 // class-aligned columns score high
			}
		}
		X[i] = row
	}
	return X, y, numClasses
}

// queries returns unseen vectors to predict on.
func queries() [][]float64 {
	src := rng.New(99)
	out := make([][]float64, 20)
	for i := range out {
		row := make([]float64, 9)
		for d := range row {
			row[d] = src.Float64() * 100
		}
		out[i] = row
	}
	return out
}

func TestKindsRegistered(t *testing.T) {
	got := Kinds()
	want := []string{KindKNN, KindRF, KindSVM}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Kinds() = %v, want %v", got, want)
	}
	for _, kind := range append(got, "") {
		if err := Validate(kind); err != nil {
			t.Errorf("Validate(%q): %v", kind, err)
		}
	}
	if Validate("gradient-boosting") == nil {
		t.Error("Validate accepted an unknown kind")
	}
}

func TestUnknownKind(t *testing.T) {
	X, y, nc := testData()
	if _, err := Train("gradient-boosting", X, y, nc, Options{}); err == nil {
		t.Fatal("training an unknown kind succeeded")
	}
	if _, err := Unmarshal("gradient-boosting", []byte("{}")); err == nil {
		t.Fatal("unmarshalling an unknown kind succeeded")
	}
}

// TestAdapterDifferential proves Train is a zero-arithmetic delegate:
// models trained through it predict bit-identically to calling the
// underlying package directly on the same data and parameters.
func TestAdapterDifferential(t *testing.T) {
	X, y, nc := testData()
	qs := queries()

	t.Run("rf", func(t *testing.T) {
		params := rf.Params{NumTrees: 25, Seed: 7, Balanced: true}
		direct, err := rf.Train(X, y, nc, params)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Train(KindRF, X, y, nc, Options{Forest: params})
		if err != nil {
			t.Fatal(err)
		}
		assertSameModel(t, m, nc, len(X[0]))
		for i, q := range qs {
			if got, want := m.PredictProba(q), direct.PredictProba(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d: adapter %v, direct %v", i, got, want)
			}
		}
	})

	t.Run("knn", func(t *testing.T) {
		params := knn.Params{K: 3, Weighted: true}
		direct, err := knn.Train(X, y, nc, params)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Train(KindKNN, X, y, nc, Options{KNN: params})
		if err != nil {
			t.Fatal(err)
		}
		assertSameModel(t, m, nc, len(X[0]))
		for i, q := range qs {
			if got, want := m.PredictProba(q), direct.PredictProba(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d: adapter %v, direct %v", i, got, want)
			}
		}
	})

	t.Run("svm", func(t *testing.T) {
		params := svm.Params{Epochs: 10, Seed: 5}
		direct, err := svm.Train(X, y, nc, params)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Train(KindSVM, X, y, nc, Options{SVM: params})
		if err != nil {
			t.Fatal(err)
		}
		assertSameModel(t, m, nc, len(X[0]))
		for i, q := range qs {
			if got, want := m.PredictProba(q), direct.PredictProba(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d: adapter %v, direct %v", i, got, want)
			}
		}
	})
}

func assertSameModel(t *testing.T, m Model, nc, nf int) {
	t.Helper()
	if m.NumClasses() != nc {
		t.Fatalf("NumClasses() = %d, want %d", m.NumClasses(), nc)
	}
	if m.NumFeatures() != nf {
		t.Fatalf("NumFeatures() = %d, want %d", m.NumFeatures(), nf)
	}
}

// TestJSONRoundTrip proves the persistence contract of every model
// kind: marshal, unmarshal, and predict bit-identically.
func TestJSONRoundTrip(t *testing.T) {
	X, y, nc := testData()
	qs := queries()
	for _, tc := range []struct {
		kind string
		opt  Options
	}{
		{KindRF, Options{Forest: rf.Params{NumTrees: 15, Seed: 3}}},
		{KindKNN, Options{KNN: knn.Params{K: 4}}},
		{KindSVM, Options{SVM: svm.Params{Epochs: 8, Seed: 9}}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			m, err := Train(tc.kind, X, y, nc, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			back, err := Unmarshal(tc.kind, data)
			if err != nil {
				t.Fatal(err)
			}
			assertSameModel(t, back, nc, len(X[0]))
			for i, q := range qs {
				if got, want := back.PredictProba(q), m.PredictProba(q); !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d after round-trip: %v, want %v", i, got, want)
				}
			}
		})
	}
}

// TestUnmarshalRejectsMalformed ensures corrupted payloads surface as
// errors, not as silently broken models.
func TestUnmarshalRejectsMalformed(t *testing.T) {
	for _, tc := range []struct{ kind, payload string }{
		{KindRF, `{"Trees":[]}`},
		{KindKNN, `{"x":[[1,2]],"y":[0],"num_classes":1,"params":{}}`},
		{KindKNN, `{"x":[[1,2,3],[1,2]],"y":[0,1],"num_classes":2,"params":{"K":1}}`}, // ragged rows
		{KindSVM, `{"weights":[[1]],"biases":[0],"num_classes":2,"scale":1}`},
		{KindSVM, `{"weights":[[1],[2]],"biases":[0,0],"num_classes":2,"scale":0}`},
		{KindRF, `not json`},
	} {
		if _, err := Unmarshal(tc.kind, []byte(tc.payload)); err == nil {
			t.Errorf("%s accepted malformed payload %s", tc.kind, tc.payload)
		}
	}
}

// TestForestIntrospection covers the optional surface core relies on
// for Table 5.
func TestForestIntrospection(t *testing.T) {
	X, y, nc := testData()
	m, err := Train(KindRF, X, y, nc, Options{Forest: rf.Params{NumTrees: 10, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	imp, ok := m.(Importancer)
	if !ok {
		t.Fatal("rf model does not expose Importances")
	}
	if got := imp.Importances(); len(got) != len(X[0]) {
		t.Fatalf("importances length %d, want %d", len(got), len(X[0]))
	}
	for _, kind := range []string{KindKNN, KindSVM} {
		m, err := Train(kind, X, y, nc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.(Importancer); ok {
			t.Fatalf("%s unexpectedly exposes Importances", kind)
		}
	}
}
