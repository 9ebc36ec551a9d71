package workload_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mindmappings/internal/loopnest"
	"mindmappings/internal/workload"
)

// naiveTensorRefs splits an einsum expression into its tensor references
// ("I[N,C,X+R,Y+S]"), inputs in source order followed by the output — the
// order Compile lays out Algorithm.Tensors in. It shares no code with the
// parser.
func naiveTensorRefs(expr string) []string {
	expr = strings.Join(strings.Fields(expr), "")
	out, rhs, _ := strings.Cut(expr, "+=")
	return append(strings.Split(rhs, "*"), out)
}

// naiveFootprint evaluates one tensor reference at a tile: the product
// over its subscript terms of the term's extent, where a term naming k
// dimensions spans the sum of their tile sizes minus k-1.
func naiveFootprint(ref string, dimNames []string, tile []int) int64 {
	_, subs, _ := strings.Cut(strings.TrimSuffix(ref, "]"), "[")
	words := int64(1)
	for _, term := range strings.Split(subs, ",") {
		extent := int64(1)
		for _, name := range strings.Split(term, "+") {
			extent += int64(tile[slices.Index(dimNames, name)]) - 1
		}
		words *= extent
	}
	return words
}

// TestFootprintMatchesNaiveEvaluation: on every registered workload,
// Tensor.Footprint agrees with a direct evaluation of the spec's subscript
// terms on random tiles, halo terms included.
func TestFootprintMatchesNaiveEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, info := range workload.List() {
		algo := loopnest.MustAlgorithm(info.Name)
		refs := naiveTensorRefs(info.Expr)
		if len(refs) != len(algo.Tensors) {
			t.Fatalf("%s: %d tensor references, %d tensors", info.Name, len(refs), len(algo.Tensors))
		}
		tile := make([]int, algo.NumDims())
		for trial := 0; trial < 500; trial++ {
			for d := range tile {
				tile[d] = 1 + rng.Intn(64)
			}
			for i := range algo.Tensors {
				want := naiveFootprint(refs[i], algo.DimNames, tile)
				if got := algo.Tensors[i].Footprint(tile); got != want {
					t.Fatalf("%s tensor %s tile %v: Footprint %d, naive %d",
						info.Name, refs[i], tile, got, want)
				}
			}
		}
	}
}
