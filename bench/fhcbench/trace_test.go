package main

import (
	"math"
	"slices"
	"testing"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},  // overlaps a: 30..40 is new
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent: 90..100 counts
		{ID: 5, Parent: 2, Name: "a.child", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 30 - 10, 2: 20 - 6, 3: 20, 4: 30, 5: 6} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
}

func TestStageSumCoversTheSubtree(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 7, Name: "request", Start: 0, End: 300},
		{ID: 2, Req: 7, Parent: 1, Name: "httpserve.raw_handler", Start: 0, End: 100},
		{ID: 3, Req: 7, Parent: 1, Name: "stages", Start: 100, End: 198},
		{ID: 4, Req: 7, Parent: 3, Name: "dataset.from_reader", Start: 101, End: 181},
		{ID: 5, Req: 7, Parent: 3, Name: "serve.classify", Start: 181, End: 197},
		{ID: 6, Req: 7, Parent: 1, Name: "core.featurize", Start: 200, End: 210},
		{ID: 7, Req: 7, Parent: 1, Name: "core.featurize", Start: 210, End: 217},
	}
	a := newAggregate(spans)
	// The stage subtree's self times add up to its whole span, 98 ns,
	// and nothing outside it counts.
	if got := a.subtreeSelf(7, "stages"); got != 98e-6 {
		t.Fatalf("stage sum %g ms, want %g", got, 98e-6)
	}
	if got := a.subtreeSelf(7, "stages") / a.total([]int{7}, "httpserve.raw_handler"); math.Abs(got-0.98) > 1e-12 {
		t.Fatalf("stage_sum_ratio %g, want 0.98", got)
	}
	if got := a.fastest(7, "core.featurize"); got != 7e-6 {
		t.Fatalf("fastest featurize %g ms, want %g", got, 7e-6)
	}
}

// TestIngestPartsComputeFromReadersSample holds the calls timed one layer
// at a time to the real dataset.FromReader: on the same body they must
// compute the same sample, or the ingestion metrics time other work.
func TestIngestPartsComputeFromReadersSample(t *testing.T) {
	g := testGen(t, 5, 4*mib)
	for i, size := range []int{0, 64 << 10, 200<<10 + 17, mib} {
		data := g.body(kindTraceCold, uint64(i), size).bytes()
		tr := newTracer()
		want, err := fromReader(tr, 0, 1, data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ingestParts(tr, 0, 1, data)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("ingestParts %+v, FromReader %+v", got, want)
		}
		var names []string
		for _, s := range tr.spans {
			names = append(names, s.Name)
		}
		if want := append([]string{"dataset.from_reader"}, ingestStages...); !slices.Equal(names, want) {
			t.Fatalf("spans %v, want %v", names, want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	tr.end(id)
	ran := false
	tr.do("y", id, 0, func() { ran = true })
	if !ran || id != 0 {
		t.Fatalf("nil tracer: ran %v, id %d", ran, id)
	}
	live := newTracer()
	p := live.begin("p", 0, 1)
	live.do("c", p, 1, func() {})
	live.end(p)
	if len(live.spans) != 2 || live.spans[1].Parent != p || live.spans[0].End < live.spans[1].End {
		t.Fatalf("spans %+v", live.spans)
	}
}
