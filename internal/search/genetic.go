package search

import (
	"math/rand"
	"slices"

	"mindmappings/internal/mapspace"
	"mindmappings/internal/stats"
)

// GeneticAlgorithm is the GA baseline (paper Appendix A, built with DEAP
// there): population 100, crossover probability 0.75, per-attribute
// mutation probability 0.05, fitness = EDP, selection at the end of each
// generation.
type GeneticAlgorithm struct {
	// PopSize defaults to the paper's 100, shrinking automatically when the
	// evaluation budget could not sustain two generations.
	PopSize int
	// CrossoverProb defaults to 0.75.
	CrossoverProb float64
	// MutationRate defaults to 0.05.
	MutationRate float64
	// Elite is the number of best individuals carried over unchanged.
	// Defaults to 2.
	Elite int
	// TournamentK is the tournament-selection size. Defaults to 3.
	TournamentK int
}

// Name implements Searcher.
func (GeneticAlgorithm) Name() string { return "GA" }

// Search implements Searcher.
func (g GeneticAlgorithm) Search(ctx *Context, budget Budget) (Result, error) {
	if err := ctx.validate(); err != nil {
		return Result{}, err
	}
	if err := budget.validate(); err != nil {
		return Result{}, err
	}
	pop := g.PopSize
	if pop <= 0 {
		pop = 100
	}
	if budget.MaxEvals > 0 && pop > budget.MaxEvals/2 {
		pop = budget.MaxEvals / 2
	}
	if pop < 8 {
		pop = 8
	}
	px := g.CrossoverProb
	if px <= 0 || px > 1 {
		px = 0.75
	}
	pm := g.MutationRate
	if pm <= 0 || pm > 1 {
		pm = 0.05
	}
	elite := g.Elite
	if elite <= 0 {
		elite = 2
	}
	if elite > pop/2 {
		elite = pop / 2
	}
	tk := g.TournamentK
	if tk <= 1 {
		tk = 3
	}

	rng := stats.NewRNG(ctx.Seed + 307)
	t := newTracker(ctx, budget)

	// Initial population, evaluated as one batch. Generation consumes the
	// rng in exactly the per-candidate order of the scalar loop (evals
	// draw no randomness), and payEvalBatch records in candidate order,
	// so trajectories match the scalar path bit for bit.
	cur := make([]mapspace.Mapping, 0, pop)
	for i := 0; i < t.remainingEvals(pop); i++ {
		cur = append(cur, ctx.Space.Random(rng))
	}
	curE, err := t.payEvalBatch(cur, nil)
	if err != nil {
		return Result{}, err
	}
	cur = cur[:len(curE)]

	// The population is double-buffered: each generation is bred into next
	// from cur and the two swap, so a child is written over the storage of
	// an individual from two generations back instead of a fresh Mapping.
	next := make([]mapspace.Mapping, pop)
	nextE := make([]float64, 0, pop)
	rank := make([]int, 0, pop)
	var vals []float64
	for !t.exhausted() && len(cur) >= 2 {
		// Rank by fitness. A stable sort of indices makes exactly the
		// comparisons and moves a stable sort of the individuals would, so
		// the ranking is identical without moving any Mapping.
		rank = rank[:len(cur)]
		for i := range rank {
			rank[i] = i
		}
		slices.SortStableFunc(rank, func(a, b int) int { return byEDP(curE[a], curE[b]) })
		// Elitism: best individuals survive with their known fitness (no
		// re-evaluation cost).
		nextE = nextE[:0]
		for i := 0; i < elite && i < len(cur); i++ {
			cur[rank[i]].CloneInto(&next[i])
			nextE = append(nextE, curE[rank[i]])
		}
		// Breed the generation's offspring cohort, then evaluate it as one
		// batch.
		n := len(nextE)
		kids := t.remainingEvals(len(cur) - n)
		for i := 0; i < kids; i++ {
			parentA := &cur[tournament(rng, curE, rank, tk)]
			parentB := &cur[tournament(rng, curE, rank, tk)]
			child := &next[n+i]
			if rng.Float64() < px {
				ctx.Space.CrossoverInto(rng, parentA, parentB, child)
			} else {
				parentA.CloneInto(child)
			}
			ctx.Space.MutateInto(rng, child, pm, child)
		}
		if vals, err = t.payEvalBatch(next[n:n+kids], vals); err != nil {
			return Result{}, err
		}
		nextE = append(nextE, vals...)
		cur, next = next[:len(nextE)], cur[:cap(cur)]
		curE, nextE = nextE, curE
	}
	return t.result(g.Name()), nil
}

// byEDP orders by ascending EDP exactly as a < comparison does, NaN
// included, so stable sorts rank as sort.SliceStable with < did.
func byEDP(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// tournament returns the fittest of k random picks from the ranked
// population, in rank order, as an index into edp.
func tournament(rng *rand.Rand, edp []float64, rank []int, k int) int {
	best := rank[rng.Intn(len(rank))]
	for i := 1; i < k; i++ {
		if cand := rank[rng.Intn(len(rank))]; edp[cand] < edp[best] {
			best = cand
		}
	}
	return best
}
