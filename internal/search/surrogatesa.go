package search

import (
	"errors"

	"mindmappings/internal/mapspace"
	"mindmappings/internal/surrogate"
)

// SurrogateSA is simulated annealing whose energy function is the trained
// surrogate instead of the reference cost model — the hybrid the paper
// discusses in §5.4.2: "it is possible to improve traditional black-box
// methods in terms of time-per-step by using a surrogate ... While such
// surrogates are not beneficial in finding better mappings (i.e., will not
// improve iso-iteration search quality), they enable more cost function
// queries per unit time, which improves iso-time search quality."
//
// It runs SimulatedAnnealing's loop with the surrogate as the energy.
// Budget accounting mirrors Mind Mappings: each move costs one cheap
// surrogate query; the trajectory is scored offline with the true cost
// model. Comparing SurrogateSA against MindMappings isolates the value
// of the *gradients* — both pay surrogate prices, only MM has directions.
type SurrogateSA struct {
	// Surrogate is the trained Phase-1 model. Required.
	Surrogate *surrogate.Surrogate
}

// Name implements Searcher.
func (SurrogateSA) Name() string { return "SA+f*" }

// Search implements Searcher.
func (s SurrogateSA) Search(ctx *Context, budget Budget) (Result, error) {
	t, err := newTracker(ctx, budget)
	if err != nil {
		return Result{}, err
	}
	if s.Surrogate == nil {
		return Result{}, errors.New("search: SurrogateSA requires a trained surrogate")
	}
	if s.Surrogate.Net.InDim() != ctx.Space.VectorLen() {
		return Result{}, errors.New("search: surrogate input width does not match this map space")
	}

	// The energy is a one-row PredictBatch over reused buffers; each move
	// is then scored offline through the tracker.
	eExp, dExp := objectiveExponents(ctx.Objective)
	row := make([][]float64, 1)
	var pred []float64
	return anneal(ctx, t, s.Name(), ctx.Seed+701, func(m *mapspace.Mapping) (float64, error) {
		row[0] = ctx.Space.EncodeInto(row[0], m)
		var err error
		if pred, err = s.Surrogate.PredictBatch(row, eExp, dExp, pred); err != nil {
			return 0, err
		}
		if _, err := t.scoreSurrogateStep(m); err != nil {
			return 0, err
		}
		return pred[0], nil
	})
}
