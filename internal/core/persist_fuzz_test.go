package core

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

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
