package search

import (
	"mindmappings/internal/mapspace"
	"mindmappings/internal/stats"
)

// RandomSearch draws uniform valid mappings until the budget is exhausted.
// It is the sanity-check baseline: any guided method must beat it.
type RandomSearch struct{}

// randomChunk is how many candidates RandomSearch draws per evaluation
// batch; samples are independent, so chunking changes nothing but the
// amortization.
const randomChunk = 64

// Name implements Searcher.
func (RandomSearch) Name() string { return "Random" }

// Search implements Searcher.
func (RandomSearch) Search(ctx *Context, budget Budget) (Result, error) {
	if err := ctx.validate(); err != nil {
		return Result{}, err
	}
	if err := budget.validate(); err != nil {
		return Result{}, err
	}
	rng := stats.NewRNG(ctx.Seed + 101)
	t := newTracker(ctx, budget)
	cohort := make([]mapspace.Mapping, 0, randomChunk)
	var vals []float64
	for !t.exhausted() {
		cohort = cohort[:0]
		for i := 0; i < t.remainingEvals(randomChunk); i++ {
			cohort = append(cohort, ctx.Space.Random(rng))
		}
		var err error
		if vals, err = t.payEvalBatch(cohort, vals); err != nil {
			return Result{}, err
		}
	}
	return t.result("Random"), nil
}
