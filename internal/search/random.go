package search

import (
	"mindmappings/internal/mapspace"
	"mindmappings/internal/stats"
)

// RandomSearch draws uniform valid mappings until the budget is exhausted.
// It is the sanity-check baseline: any guided method must beat it.
type RandomSearch struct{}

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
	var m mapspace.Mapping
	for !t.exhausted() {
		m = ctx.Space.Random(rng)
		if _, err := t.payEval(&m); err != nil {
			return Result{}, err
		}
	}
	return t.result("Random"), nil
}
