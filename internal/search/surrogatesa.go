package search

import (
	"errors"
	"math"

	"mindmappings/internal/mapspace"
	"mindmappings/internal/stats"
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
// Budget accounting mirrors Mind Mappings: each Metropolis step costs one
// cheap surrogate query; the trajectory is scored offline with the true
// cost model. Comparing SurrogateSA against MindMappings isolates the value
// of the *gradients* — both pay surrogate prices, only MM has directions.
type SurrogateSA struct {
	// Surrogate is the trained Phase-1 model. Required.
	Surrogate *surrogate.Surrogate
}

// Name implements Searcher.
func (SurrogateSA) Name() string { return "SA+f*" }

// Search implements Searcher.
func (s SurrogateSA) Search(ctx *Context, budget Budget) (Result, error) {
	if err := ctx.validate(); err != nil {
		return Result{}, err
	}
	if err := budget.validate(); err != nil {
		return Result{}, err
	}
	if s.Surrogate == nil {
		return Result{}, errors.New("search: SurrogateSA requires a trained surrogate")
	}
	if s.Surrogate.Net.InDim() != ctx.Space.VectorLen() {
		return Result{}, errors.New("search: surrogate input width does not match this map space")
	}
	rng := stats.NewRNG(ctx.Seed + 701)
	t := newTracker(ctx, budget)

	// Every surrogate query goes through PredictBatch: the Metropolis
	// moves as one-row batches over reused buffers, the pilot chain below
	// as one batch.
	eExp, dExp := objectiveExponents(ctx.Objective)
	row := make([][]float64, 1)
	var pred []float64
	predict := func(m *mapspace.Mapping) (float64, error) {
		row[0] = ctx.Space.EncodeInto(row[0], m)
		var err error
		if pred, err = s.Surrogate.PredictBatch(row, eExp, dExp, pred); err != nil {
			return 0, err
		}
		return pred[0], nil
	}

	cur := ctx.Space.Random(rng)
	curE, err := predict(&cur)
	if err != nil {
		return Result{}, err
	}
	if _, err := t.scoreSurrogateStep(&cur); err != nil {
		return Result{}, err
	}

	// Pilot chain: all moves are accepted, so the chain is rng-only and
	// can be generated up front, predicted with one surrogate batch, and
	// scored with one tracker batch.
	var deltas stats.Running
	if !t.exhausted() {
		chain := make([]mapspace.Mapping, 0, saPilotMoves)
		prev := &cur
		for i := 0; i < t.remainingEvals(saPilotMoves); i++ {
			chain = append(chain, ctx.Space.Perturb(rng, prev))
			prev = &chain[len(chain)-1]
		}
		vecs := make([][]float64, len(chain))
		for i := range chain {
			vecs[i] = ctx.Space.Encode(&chain[i])
		}
		preds, err := s.Surrogate.PredictBatch(vecs, eExp, dExp, nil)
		if err != nil {
			return Result{}, err
		}
		vals, err := t.scoreSurrogateBatch(chain, nil)
		if err != nil {
			return Result{}, err
		}
		for i := range vals {
			nextE := preds[i]
			if d := math.Abs(nextE - curE); d > 0 {
				deltas.Add(d)
			}
			cur, curE = chain[i], nextE
		}
	}
	tMax, tMin := annealSchedule(&deltas, curE)

	for {
		now := t.clock()
		if t.exhaustedAt(now) {
			break
		}
		temp := tMax * math.Pow(tMin/tMax, t.progress(now))
		next := ctx.Space.Perturb(rng, &cur)
		nextE, err := predict(&next)
		if err != nil {
			return Result{}, err
		}
		if _, err := t.scoreSurrogateStep(&next); err != nil {
			return Result{}, err
		}
		delta := nextE - curE
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			cur, curE = next, nextE
		}
	}
	return t.result(s.Name()), nil
}
