package search

import (
	"math"

	"mindmappings/internal/mapspace"
	"mindmappings/internal/stats"
)

// SimulatedAnnealing is the SA baseline (paper Appendix A), modeled on the
// simanneal library the paper used: a pilot phase auto-tunes the
// temperature schedule to the observed cost-delta scale, then Metropolis
// accepts neighbors under an exponentially decaying temperature.
type SimulatedAnnealing struct {
	// PilotMoves is the number of budgeted exploratory moves used to
	// estimate the cost-delta scale (simanneal's auto-tuning). Defaults
	// to 40.
	PilotMoves int
	// AcceptHigh and AcceptLow set the target initial and final uphill
	// acceptance probabilities for the auto-tuned schedule. Defaults 0.98
	// and 1e-4 (simanneal's defaults).
	AcceptHigh float64
	AcceptLow  float64
}

// Name implements Searcher.
func (SimulatedAnnealing) Name() string { return "SA" }

// Search implements Searcher.
func (s SimulatedAnnealing) Search(ctx *Context, budget Budget) (Result, error) {
	if err := ctx.validate(); err != nil {
		return Result{}, err
	}
	if err := budget.validate(); err != nil {
		return Result{}, err
	}
	pilot := s.PilotMoves
	if pilot <= 0 {
		pilot = 40
	}
	acceptHigh := s.AcceptHigh
	if acceptHigh <= 0 || acceptHigh >= 1 {
		acceptHigh = 0.98
	}
	acceptLow := s.AcceptLow
	if acceptLow <= 0 || acceptLow >= 1 {
		acceptLow = 1e-4
	}

	rng := stats.NewRNG(ctx.Seed + 211)
	t := newTracker(ctx, budget)

	cur := ctx.Space.Random(rng)
	curE, err := t.payEval(&cur)
	if err != nil {
		return Result{}, err
	}

	// Pilot phase: free exploration (all moves accepted) to estimate the
	// typical uphill delta. These moves consume budget like any other.
	// Because every pilot move is accepted, the chain depends only on the
	// rng — so it can be generated up front and evaluated as one batch
	// (the Metropolis loop below has a true serial dependency and cannot).
	var deltas stats.Running
	if !t.exhausted() {
		chain := make([]mapspace.Mapping, t.remainingEvals(pilot))
		prev := &cur
		for i := range chain {
			ctx.Space.PerturbInto(rng, prev, &chain[i])
			prev = &chain[i]
		}
		vals, err := t.payEvalBatch(chain, nil)
		if err != nil {
			return Result{}, err
		}
		for i, nextE := range vals {
			if d := math.Abs(nextE - curE); d > 0 {
				deltas.Add(d)
			}
			cur, curE = chain[i], nextE
		}
	}
	meanDelta := deltas.Mean()
	if meanDelta <= 0 {
		meanDelta = math.Max(curE*0.1, 1)
	}
	// exp(-d/T) = p  =>  T = d / -ln(p).
	tMax := meanDelta / -math.Log(acceptHigh)
	tMin := meanDelta / -math.Log(acceptLow)
	if tMin >= tMax {
		tMin = tMax / 1e4
	}

	// cur and next swap storage on acceptance, so each neighbor is written
	// over the last rejected (or superseded) one.
	var next mapspace.Mapping
	for !t.exhausted() {
		temp := tMax * math.Pow(tMin/tMax, t.progress())
		ctx.Space.PerturbInto(rng, &cur, &next)
		nextE, err := t.payEval(&next)
		if err != nil {
			return Result{}, err
		}
		delta := nextE - curE
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			cur, next, curE = next, cur, nextE
		}
	}
	return t.result(s.Name()), nil
}
