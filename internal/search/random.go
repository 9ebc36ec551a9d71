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
	t, err := newTracker(ctx, budget)
	if err != nil {
		return Result{}, err
	}
	rng := stats.NewRNG(ctx.Seed + 101)
	var m mapspace.Mapping
	for !t.exhausted() {
		ctx.Space.RandomInto(rng, &m)
		if _, err := t.payEval(&m); err != nil {
			return Result{}, err
		}
	}
	return t.result("Random"), nil
}
