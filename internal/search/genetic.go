package search

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"mindmappings/internal/mapspace"
	"mindmappings/internal/stats"
)

// GeneticAlgorithm is the GA baseline (paper Appendix A, built with DEAP
// there): population 100, crossover probability 0.75, per-attribute
// mutation probability 0.05, fitness = EDP, selection at the end of each
// generation.
type GeneticAlgorithm struct{}

// The genetic-algorithm settings.
const (
	// gaPopSize is the paper's population (Appendix A). A budget that could
	// not sustain two generations shrinks it, to no fewer than 8.
	gaPopSize = 100
	// gaCrossoverProb and gaMutationRate are the paper's crossover and
	// per-attribute mutation probabilities (Appendix A).
	gaCrossoverProb = 0.75
	gaMutationRate  = 0.05
	// gaElite individuals carry over unchanged each generation, at most
	// half the population. Appendix A does not fix elitism; 2 is this
	// implementation's choice.
	gaElite = 2
	// gaTournamentK is the tournament-selection size: DEAP's selTournament
	// with the tournsize=3 of DEAP's GA examples.
	gaTournamentK = 3
)

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
	pop := gaPopSize
	if budget.MaxEvals > 0 && pop > budget.MaxEvals/2 {
		pop = max(budget.MaxEvals/2, 8)
	}
	elite := min(gaElite, pop/2)

	rng := stats.NewRNG(ctx.Seed + 307)
	t := newTracker(ctx, budget)

	// Initial population, evaluated as one batch. Generation consumes the
	// rng in exactly the order of a per-candidate loop (evals
	// draw no randomness), and payEvalBatch records in candidate order,
	// so trajectories match a per-candidate loop bit for bit.
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
		// Rank by fitness: indices sorted by EDP, then index, which is the
		// order a stable sort of the individuals by EDP leaves, without
		// moving any Mapping.
		rank = rank[:len(cur)]
		for i := range rank {
			rank[i] = i
		}
		slices.SortFunc(rank, func(a, b int) int { return byRank(curE, a, b) })
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
			parentA := &cur[tournament(rng, curE, rank)]
			parentB := &cur[tournament(rng, curE, rank)]
			child := &next[n+i]
			if rng.Float64() < gaCrossoverProb {
				ctx.Space.CrossoverInto(rng, parentA, parentB, child)
			} else {
				parentA.CloneInto(child)
			}
			ctx.Space.MutateInto(rng, child, gaMutationRate, child)
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

// byRank orders population indices a and b by their EDP in edp, ties by
// index: the order a stable sort by EDP leaves, in O(n log n) comparisons
// where a stable sort makes O(n log² n). A NaN EDP, which a stable sort
// could not place (byEDP calls it equal to every value), ranks after
// every number.
func byRank(edp []float64, a, b int) int {
	if c := byEDP(edp[a], edp[b]); c != 0 {
		return c
	}
	if an, bn := math.IsNaN(edp[a]), math.IsNaN(edp[b]); an != bn {
		if an {
			return 1
		}
		return -1
	}
	return cmp.Compare(a, b)
}

// tournament returns the fittest of gaTournamentK random picks from the
// ranked population, in rank order, as an index into edp.
func tournament(rng *rand.Rand, edp []float64, rank []int) int {
	best := rank[rng.Intn(len(rank))]
	for i := 1; i < gaTournamentK; i++ {
		if cand := rank[rng.Intn(len(rank))]; edp[cand] < edp[best] {
			best = cand
		}
	}
	return best
}
