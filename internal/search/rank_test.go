package search

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// BenchmarkGARank ranks a population of 100 random EDPs, as each GA
// generation does.
func BenchmarkGARank(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	edp := make([]float64, 100)
	for i := range edp {
		edp[i] = 1 + 10*rng.Float64()
	}
	rank := make([]int, len(edp))
	b.Run("stable", func(b *testing.B) {
		for b.Loop() {
			for i := range rank {
				rank[i] = i
			}
			slices.SortStableFunc(rank, func(x, y int) int { return byEDP(edp[x], edp[y]) })
		}
	})
	b.Run("rank", func(b *testing.B) {
		for b.Loop() {
			for i := range rank {
				rank[i] = i
			}
			slices.SortFunc(rank, func(x, y int) int { return byRank(edp, x, y) })
		}
	})
}

// TestGARankMatchesStableSort pins GA's ranking against the stable sort
// of population indices by EDP it replaced, on random vectors of every
// population size up to 130 drawn from few values, so most have ties.
func TestGARankMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []float64{0, math.Copysign(0, -1), 1.5, 2, 2, 7, math.Inf(1)}
	for trial := range 2000 {
		n := 1 + trial%130
		edp := make([]float64, n)
		for i := range edp {
			edp[i] = values[rng.Intn(len(values))]
			if rng.Intn(3) == 0 {
				edp[i] = rng.Float64()
			}
		}
		want, got := make([]int, n), make([]int, n)
		for i := range want {
			want[i], got[i] = i, i
		}
		slices.SortStableFunc(want, func(a, b int) int { return byEDP(edp[a], edp[b]) })
		slices.SortFunc(got, func(a, b int) int { return byRank(edp, a, b) })
		if !slices.Equal(got, want) {
			t.Fatalf("edp %v: rank %v, stable sort %v", edp, got, want)
		}
	}
}

// TestGARankPutsNaNLast checks that a NaN EDP ranks after every number,
// in index order, and leaves the others in stable-sort order.
func TestGARankPutsNaNLast(t *testing.T) {
	nan := math.NaN()
	edp := []float64{3, nan, 1, math.Inf(1), nan, 1, 0}
	rank := []int{0, 1, 2, 3, 4, 5, 6}
	slices.SortFunc(rank, func(a, b int) int { return byRank(edp, a, b) })
	if want := []int{6, 2, 5, 0, 3, 1, 4}; !slices.Equal(rank, want) {
		t.Fatalf("rank %v, want %v", rank, want)
	}
}
