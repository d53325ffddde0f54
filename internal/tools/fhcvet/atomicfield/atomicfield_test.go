package atomicfield_test

import (
	"testing"

	"repro/internal/tools/fhcvet/analysis/analysistest"
	"repro/internal/tools/fhcvet/atomicfield"
)

func TestMixedAccessSamePackage(t *testing.T) {
	r := analysistest.Run(t, "testdata", atomicfield.Analyzer, "a")
	if len(r.Diagnostics) == 0 {
		t.Fatal("expected diagnostics in fixture a")
	}
	if len(r.Facts.ByAnalyzer["atomicfield"]) == 0 {
		t.Fatal("expected exported facts for atomically-accessed fields")
	}
	if _, ok := r.Facts.Get("atomicfield", "a.Ops"); !ok {
		t.Errorf("missing fact for exported field a.Stats.Ops; have %v", r.Facts.ByAnalyzer["atomicfield"])
	}
}

func TestMixedAccessCrossPackage(t *testing.T) {
	analysistest.Run(t, "testdata", atomicfield.Analyzer, "b")
}
