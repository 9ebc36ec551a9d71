package main

import (
	"math/rand"
	"reflect"
	"testing"
)

func generate(t *testing.T, w *workload, seed int64, n int) plan {
	t.Helper()
	p, err := w.generate(rand.New(rand.NewSource(seed)), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.measured) != n {
		t.Fatalf("%s: %d measured requests, want %d", w.name, len(p.measured), n)
	}
	return p
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		n := w.size(2)
		a, b := generate(t, w, 7, n), generate(t, w, 7, n)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different request lists", w.name)
		}
		if c := generate(t, w, 8, n); reflect.DeepEqual(a.measured, c.measured) {
			t.Errorf("%s: seeds 7 and 8 generated the same request list", w.name)
		}
	}
}

func TestRequestsValidate(t *testing.T) {
	for _, w := range workloads {
		p := generate(t, w, 3, w.size(1))
		for _, list := range [][]request{p.presolve, p.warmup, p.measured} {
			for _, r := range list {
				if err := r.Body.Validate(); err != nil {
					t.Fatalf("%s: %+v: %v", w.name, r.Body, err)
				}
			}
		}
	}
}

func TestColdMixProportions(t *testing.T) {
	w, err := workloadByName("cold-mix")
	if err != nil {
		t.Fatal(err)
	}
	p := generate(t, w, 1, 800)
	count := map[string]int{}
	all := append(append([]request(nil), p.warmup...), p.measured...)
	for _, r := range all {
		count[r.Body.Searcher]++
	}
	n := len(all)
	if count["mm"] != n/2 || count["ga"] != n*3/4-n/2 || count["sa"] != n-n*3/4 {
		t.Fatalf("searcher mix %v over %d requests, want 50/25/25", count, n)
	}
}

func TestAtlasRepeatShapes(t *testing.T) {
	w, err := workloadByName("atlas-repeat")
	if err != nil {
		t.Fatal(err)
	}
	p := generate(t, w, 5, 1000)
	if len(p.presolve) != atlasShapesCNN+atlasShapesMTT {
		t.Fatalf("%d pre-solved shapes, want %d", len(p.presolve), atlasShapesCNN+atlasShapesMTT)
	}
	solved := map[string]bool{}
	for _, r := range p.presolve {
		solved[shapeKey(&r.Body)] = true
	}
	if len(solved) != len(p.presolve) {
		t.Fatal("pre-solved shapes repeat")
	}
	neighbors := 0
	for _, r := range p.measured {
		if !solved[shapeKey(&r.Body)] {
			neighbors++
			if r.Body.Searcher != "mm" {
				t.Errorf("unseen shape searched with %s, want mm (only mm warm-starts)", r.Body.Searcher)
			}
		}
	}
	if neighbors < len(p.measured)/neighborEvery-1 || neighbors > len(p.measured)/neighborEvery+1 {
		t.Errorf("%d unseen shapes in %d requests, want about 1 in %d", neighbors, len(p.measured), neighborEvery)
	}
}

// TestAtlasRepeatNeighborsIgnoreSeed: the run seed orders the unseen
// shapes but does not choose them, so every seed does the same search work.
func TestAtlasRepeatNeighborsIgnoreSeed(t *testing.T) {
	w, err := workloadByName("atlas-repeat")
	if err != nil {
		t.Fatal(err)
	}
	unseen := func(seed int64) map[string]bool {
		p := generate(t, w, seed, 1000)
		solved := map[string]bool{}
		for _, r := range p.presolve {
			solved[shapeKey(&r.Body)] = true
		}
		out := map[string]bool{}
		for _, r := range append(append([]request(nil), p.warmup...), p.measured...) {
			if k := shapeKey(&r.Body); !solved[k] {
				out[k] = true
			}
		}
		return out
	}
	if a, b := unseen(5), unseen(6); len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("seeds 5 and 6 search different unseen shapes:\n%v\n%v", a, b)
	}
}

func TestPersistChurnShapesAreUnique(t *testing.T) {
	w, err := workloadByName("persist-churn")
	if err != nil {
		t.Fatal(err)
	}
	p := generate(t, w, 9, 1000)
	seen := map[string]bool{}
	mm := 0
	for _, r := range append(append([]request(nil), p.warmup...), p.measured...) {
		k := shapeKey(&r.Body)
		if seen[k] {
			t.Fatalf("shape %s repeats", k)
		}
		seen[k] = true
		if r.Body.Searcher == "mm" {
			mm++
		}
	}
	if mm == 0 {
		t.Fatal("no mm requests")
	}
}
