package core

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/ssdeep"
)

// loadV1Fixture reads the frozen modelVersion-1 artifact generated by
// the pre-registry code, its sample set and the predictions that code
// produced.
func loadV1Fixture(t *testing.T) (*Classifier, []dataset.Sample, []Prediction) {
	t.Helper()
	mf, err := os.Open("testdata/model_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	clf, err := Load(mf)
	if err != nil {
		t.Fatalf("loading v1 artifact: %v", err)
	}
	sf, err := os.Open("testdata/model_v1_samples.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	samples, err := dataset.LoadSamples(sf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/model_v1_predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []Prediction
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return clf, samples, want
}

// TestLoadV1BackCompat is the frozen-artifact gate: the version-2 loader
// must read a version-1 model and predict bit-identically to the code
// that wrote it.
func TestLoadV1BackCompat(t *testing.T) {
	clf, samples, want := loadV1Fixture(t)
	if got := clf.ModelKind(); got != model.KindRF {
		t.Fatalf("v1 artifact loaded as kind %q, want %q", got, model.KindRF)
	}
	if got := clf.Threshold(); got != 0.6 {
		t.Fatalf("v1 threshold = %v, want 0.6", got)
	}
	if got := clf.Classes(); !reflect.DeepEqual(got, []string{"Alpha", "Beta", "Gamma"}) {
		t.Fatalf("v1 classes = %v", got)
	}
	if len(want) != len(samples) {
		t.Fatalf("fixture shape: %d predictions for %d samples", len(want), len(samples))
	}
	got := clf.ClassifyBatch(samples)
	for i := range samples {
		if !closedSetEqual(got[i], want[i]) {
			t.Fatalf("sample %d (%s): loaded v1 model predicts %+v, frozen expectation %+v",
				i, samples[i].Path(), got[i], want[i])
		}
	}
}

// closedSetEqual compares the fields the v1 fixture froze. The margin,
// evidence and verdict channels postdate the fixture: they are extra
// outputs of the open-set layer, not part of the frozen closed-set
// decision, and a v1 artifact must still leave the verdict empty.
func closedSetEqual(got, want Prediction) bool {
	return got.Label == want.Label && got.Class == want.Class &&
		got.Confidence == want.Confidence && got.Verdict == ""
}

// TestV1ToV2Migration re-saves a loaded v1 model (producing a v2
// artifact) and proves the migrated artifact predicts identically.
func TestV1ToV2Migration(t *testing.T) {
	clf, samples, want := loadV1Fixture(t)
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var dto modelDTO
	if err := json.Unmarshal(buf.Bytes(), &dto); err != nil {
		t.Fatal(err)
	}
	if dto.Version != modelVersion || dto.ModelKind != model.KindRF {
		t.Fatalf("re-saved artifact: version %d kind %q, want version %d kind rf",
			dto.Version, dto.ModelKind, modelVersion)
	}
	if !rawIsNull(dto.Forest) {
		t.Fatal("re-saved artifact still carries the legacy bare-forest field")
	}
	migrated, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := migrated.ClassifyBatch(samples)
	for i := range samples {
		if !closedSetEqual(got[i], want[i]) {
			t.Fatalf("sample %d: migrated model predicts %+v, frozen expectation %+v", i, got[i], want[i])
		}
	}
}

// TestLoadRejectsBadVersions covers the version gate.
func TestLoadRejectsBadVersions(t *testing.T) {
	for _, raw := range []string{
		`{"version":3,"classes":["a","b"]}`,
		`{"version":1,"classes":["a","b"]}`,                         // v1 without forest
		`{"version":2,"classes":["a","b"]}`,                         // v2 without payload
		`{"version":2,"model_kind":"nope","model":{},"classes":[]}`, // unregistered kind
	} {
		if _, err := Load(bytes.NewReader([]byte(raw))); err == nil {
			t.Errorf("Load accepted %s", raw)
		}
	}
}

// TestLoadRetiredDPDistance keeps artifacts that name a retired "-dp"
// oracle distance loadable: they resolve to the fast distance that is
// bit-identical to the oracle, so the loaded model featurises exactly
// as the oracle would and predicts exactly as the model that was saved.
func TestLoadRetiredDPDistance(t *testing.T) {
	samples, split := testData(t)
	train := gather(samples, split.TrainIdx)
	cases := []struct {
		fast, retired DistanceName
		oracle        ssdeep.DistanceFunc
	}{
		{DistanceDL, "damerau-levenshtein-dp", ssdeep.DistanceDLOracle},
		{DistanceLevenshtein, "levenshtein-dp", ssdeep.DistanceLevenshteinOracle},
	}
	for _, tc := range cases {
		t.Run(string(tc.retired), func(t *testing.T) {
			cfg := fixedConfig()
			cfg.Distance = tc.fast
			clf, err := Train(train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := clf.Save(&buf); err != nil {
				t.Fatal(err)
			}
			var artifact map[string]json.RawMessage
			if err := json.Unmarshal(buf.Bytes(), &artifact); err != nil {
				t.Fatal(err)
			}
			artifact["distance"], _ = json.Marshal(string(tc.retired))
			raw, err := json.Marshal(artifact)
			if err != nil {
				t.Fatal(err)
			}

			loaded, err := Load(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("artifact naming %q no longer loads: %v", tc.retired, err)
			}
			for i := range samples {
				got := loaded.Featurize(&samples[i])
				want := loaded.profiles.featurize(&samples[i], tc.oracle)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("sample %d: loaded features %v, DP oracle %v", i, got, want)
				}
				if a, b := clf.Classify(&samples[i]), loaded.Classify(&samples[i]); a != b {
					t.Fatalf("sample %d: saved model %+v, loaded %+v", i, a, b)
				}
			}
		})
	}
}
