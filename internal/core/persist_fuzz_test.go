package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rf"
)

// hostileForests are malformed edits of the v1 fixture's forest, each
// named for what it breaks. Before decoding validated the forest, the
// zeroed root children loaded and then never finished a Classify, and
// the child past the end loaded and then panicked.
var hostileForests = []struct {
	name   string
	mutate func(f *rf.Forest)
}{
	{"no trees", func(f *rf.Forest) { f.Trees = nil }},
	{"null tree", func(f *rf.Forest) { f.Trees[1] = nil }},
	{"tree without nodes", func(f *rf.Forest) { f.Trees[0].Nodes = nil }},
	{"root children zeroed", func(f *rf.Forest) {
		for _, t := range f.Trees {
			t.Nodes[0].Left, t.Nodes[0].Right = 0, 0
		}
	}},
	{"child past the end", func(f *rf.Forest) { f.Trees[0].Nodes[0].Left = 99 }},
	{"negative child", func(f *rf.Forest) { f.Trees[0].Nodes[0].Right = -1 }},
	{"child before its parent", func(f *rf.Forest) {
		i := firstNode(f.Trees[0], false, 1)
		f.Trees[0].Nodes[i].Right = int32(i - 1)
	}},
	{"feature out of range", func(f *rf.Forest) { f.Trees[0].Nodes[0].Feature = int32(f.NumFeatures) }},
	{"feature below the leaf marker", func(f *rf.Forest) { f.Trees[0].Nodes[0].Feature = -2 }},
	{"leaf class out of range", func(f *rf.Forest) {
		f.Trees[0].Nodes[firstNode(f.Trees[0], true, 0)].Classes[0] = int32(f.NumClasses)
	}},
	{"negative leaf class", func(f *rf.Forest) {
		f.Trees[0].Nodes[firstNode(f.Trees[0], true, 0)].Classes[0] = -1
	}},
	{"more weights than classes", func(f *rf.Forest) {
		n := &f.Trees[0].Nodes[firstNode(f.Trees[0], true, 0)]
		n.Weights = append(n.Weights, 0.5)
	}},
	{"one class", func(f *rf.Forest) { f.NumClasses = 1 }},
	{"short importances", func(f *rf.Forest) { f.Importances = f.Importances[:2] }},
}

// firstNode returns the index of the first leaf (leaf true) or split
// node at or after index from.
func firstNode(t *rf.Tree, leaf bool, from int) int {
	for i := from; i < len(t.Nodes); i++ {
		if (t.Nodes[i].Feature < 0) == leaf {
			return i
		}
	}
	panic("fixture tree has no such node")
}

// hostileArtifacts returns the v1 fixture with each hostile forest in
// place of its own, keyed by the case name.
func hostileArtifacts(t testing.TB) map[string][]byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/model_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(hostileForests))
	for _, hc := range hostileForests {
		var artifact map[string]json.RawMessage
		if err := json.Unmarshal(raw, &artifact); err != nil {
			t.Fatal(err)
		}
		var f rf.Forest
		if err := json.Unmarshal(artifact["forest"], &f); err != nil {
			t.Fatal(err)
		}
		hc.mutate(&f)
		if artifact["forest"], err = json.Marshal(&f); err != nil {
			t.Fatal(err)
		}
		if out[hc.name], err = json.Marshal(artifact); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestLoadRejectsHostileForests: every malformed forest fails Load, so
// a model swap to it is refused instead of wedging or crashing the
// requests it would serve.
func TestLoadRejectsHostileForests(t *testing.T) {
	for name, raw := range hostileArtifacts(t) {
		if _, err := Load(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: Load accepted the artifact", name)
		}
	}
}

// misshapenProfiles are edits of an artifact's features and profiles
// that break their one-for-one pairing, each named for what it breaks.
// Before Load checked the pairing, every one of them loaded and served
// some feature columns as zeros or from the wrong kind's profile.
var misshapenProfiles = []struct {
	name   string
	mutate func(features *[]int, profiles *[]kindProfilesDTO)
}{
	{"last profile dropped", func(_ *[]int, ps *[]kindProfilesDTO) { *ps = (*ps)[:len(*ps)-1] }},
	{"feature kind repeated", func(fs *[]int, _ *[]kindProfilesDTO) { (*fs)[len(*fs)-1] = (*fs)[0] }},
	{"profile kind not a feature", func(_ *[]int, ps *[]kindProfilesDTO) {
		(*ps)[len(*ps)-1].Kind = int(dataset.FeatureNeeded)
	}},
	{"profile kind repeated", func(_ *[]int, ps *[]kindProfilesDTO) { (*ps)[len(*ps)-1].Kind = (*ps)[0].Kind }},
}

// misshapenArtifacts returns the frozen v2 rf artifact with each
// misshapen profile edit applied, keyed by the case name.
func misshapenArtifacts(t testing.TB) map[string][]byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/model_v2_rf.json")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(misshapenProfiles))
	for _, mc := range misshapenProfiles {
		var artifact map[string]json.RawMessage
		if err := json.Unmarshal(raw, &artifact); err != nil {
			t.Fatal(err)
		}
		var features []int
		var profiles []kindProfilesDTO
		if err := json.Unmarshal(artifact["features"], &features); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(artifact["profiles"], &profiles); err != nil {
			t.Fatal(err)
		}
		mc.mutate(&features, &profiles)
		if artifact["features"], err = json.Marshal(features); err != nil {
			t.Fatal(err)
		}
		if artifact["profiles"], err = json.Marshal(profiles); err != nil {
			t.Fatal(err)
		}
		if out[mc.name], err = json.Marshal(artifact); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestLoadRejectsMisshapenProfiles: an artifact whose profiles do not
// pair one-for-one with its features fails Load with ErrProfileShape,
// so a model swap to it is refused instead of serving zeroed columns.
func TestLoadRejectsMisshapenProfiles(t *testing.T) {
	for name, raw := range misshapenArtifacts(t) {
		if _, err := Load(bytes.NewReader(raw)); !errors.Is(err, ErrProfileShape) {
			t.Errorf("%s: Load returned %v, want ErrProfileShape", name, err)
		}
	}
}

// FuzzLoad: an artifact either fails Load, or loads into a classifier
// that classifies a fixture sample and reports its importances without
// panicking (and, through the fuzzer's per-input deadline, without
// hanging).
func FuzzLoad(f *testing.F) {
	for _, name := range []string{"model_v1", "model_v2_rf", "model_v2_knn", "model_v2_svm"} {
		raw, err := os.ReadFile("testdata/" + name + ".json")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, raw := range hostileArtifacts(f) {
		f.Add(raw)
	}
	for _, raw := range misshapenArtifacts(f) {
		f.Add(raw)
	}
	sample := loadFixtureSamples(f)[0]
	f.Fuzz(func(t *testing.T, raw []byte) {
		clf, err := Load(bytes.NewReader(raw))
		if err != nil {
			return
		}
		clf.Classify(&sample)
		clf.FeatureImportance()
	})
}
