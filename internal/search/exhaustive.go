package search

import (
	"mindmappings/internal/arch"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/stats"
)

// PrunedExhaustive is the pruned-search mapper style of Timeloop and
// dMazeRunner (paper Table 2): systematically enumerate tile factorizations
// with buffer-capacity pruning, combined with loop-order enumeration (full
// for small dimension counts, sampled otherwise) and footprint-derived
// buffer allocations. On small map spaces it visits every pruned point and
// therefore finds the achievable optimum — which makes it the test oracle
// for validating how close the heuristic methods land; on large spaces the
// budget cuts it off, illustrating why the paper calls exhaustive
// techniques ineffective (§1: "combinatorial explosion of possible
// mappings").
type PrunedExhaustive struct{}

// exhaustiveMaxOrders bounds how many loop orders are tried per tiling;
// above it, orders are sampled. It is 4!, so every order of a problem of
// up to four dimensions is swept. The paper runs no pruned search, so
// this is this implementation's choice.
const exhaustiveMaxOrders = 24

// Name implements Searcher.
func (PrunedExhaustive) Name() string { return "Exhaustive" }

// Search implements Searcher.
func (e PrunedExhaustive) Search(ctx *Context, budget Budget) (Result, error) {
	t, err := newTracker(ctx, budget)
	if err != nil {
		return Result{}, err
	}
	rng := stats.NewRNG(ctx.Seed + 811)
	space := ctx.Space
	d := space.NumDims()

	// Pre-compute the loop orders to sweep: all permutations when small,
	// a deterministic sample otherwise. The same set is reused at every
	// level (sweeping level orders jointly would cube the count).
	orders := allPermutations(d, exhaustiveMaxOrders, rng)

	// Depth-first enumeration of per-dimension chains with incremental
	// spatial-budget pruning; buffer-fit pruning happens per complete
	// tiling (footprints are not dimension-separable because of halos).
	m := space.Minimal()
	var assign func(dim, peBudget int) error
	stop := false
	assign = func(dim, peBudget int) error {
		if stop || t.exhausted() {
			stop = true
			return nil
		}
		if dim == d {
			return e.sweepOrders(ctx, t, &m, orders, &stop)
		}
		for _, c := range space.Chains(dim) {
			if c[mapspace.ChainSpatial] > peBudget {
				continue // spatial-budget pruning
			}
			m.SetChain(dim, c)
			if err := assign(dim+1, peBudget/c[mapspace.ChainSpatial]); err != nil {
				return err
			}
			if stop {
				return nil
			}
		}
		return nil
	}
	if err := assign(0, ctx.Space.Arch.NumPEs); err != nil {
		return Result{}, err
	}
	return t.result(e.Name()), nil
}

// sweepOrders evaluates one complete tiling under each candidate loop
// order, with capacity pruning (tile-does-not-fit points are skipped
// without an evaluation, the "pruned" part of pruned search).
func (e PrunedExhaustive) sweepOrders(ctx *Context, t *tracker, m *mapspace.Mapping, orders [][]int, stop *bool) error {
	candidate := m.Clone()
	// Allocations follow footprints exactly (the pruned-search convention:
	// buffers sized to the tiles, which is also the allocation-energy
	// optimum); TightenAlloc doubles as the capacity-pruning check.
	if !ctx.Space.TightenAlloc(&candidate) {
		return nil
	}
	// Sweep loop orders: jointly across the three levels when the
	// combination count is small (needed for true optimality on tiny
	// spaces), otherwise the same order at every level.
	n := len(orders)
	if n*n*n <= 4*len(orders)*3 || n*n*n <= 64 {
		for _, o2 := range orders {
			for _, o1 := range orders {
				for _, o0 := range orders {
					if t.exhausted() {
						*stop = true
						return nil
					}
					copy(candidate.Order[arch.DRAM], o2)
					copy(candidate.Order[arch.L2], o1)
					copy(candidate.Order[arch.L1], o0)
					if _, err := t.payEval(&candidate); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	for _, order := range orders {
		if t.exhausted() {
			*stop = true
			return nil
		}
		for l := arch.L1; l < arch.NumLevels; l++ {
			copy(candidate.Order[l], order)
		}
		if _, err := t.payEval(&candidate); err != nil {
			return err
		}
	}
	return nil
}

// allPermutations returns every permutation of [0,d) when their count is at
// most limit, else limit random distinct-ish permutations.
func allPermutations(d, limit int, rng interface{ Perm(int) []int }) [][]int {
	count := 1
	for i := 2; i <= d; i++ {
		count *= i
		if count > limit {
			break
		}
	}
	if count <= limit {
		var out [][]int
		perm := make([]int, d)
		for i := range perm {
			perm[i] = i
		}
		var heap func(k int)
		heap = func(k int) {
			if k == 1 {
				out = append(out, append([]int(nil), perm...))
				return
			}
			for i := 0; i < k; i++ {
				heap(k - 1)
				if k%2 == 0 {
					perm[i], perm[k-1] = perm[k-1], perm[i]
				} else {
					perm[0], perm[k-1] = perm[k-1], perm[0]
				}
			}
		}
		heap(d)
		return out
	}
	out := make([][]int, 0, limit)
	for i := 0; i < limit; i++ {
		out = append(out, rng.Perm(d))
	}
	return out
}
