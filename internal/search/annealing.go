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
type SimulatedAnnealing struct{}

// The simulated-annealing schedule, shared by SimulatedAnnealing and
// SurrogateSA (paper Appendix A: simanneal's auto-tuned schedule).
const (
	// saPilotMoves is the number of budgeted exploratory moves that
	// estimate the cost-delta scale (simanneal's auto-tuning).
	saPilotMoves = 40
	// saAcceptHigh and saAcceptLow are the initial and final uphill
	// acceptance probabilities the schedule is tuned to (simanneal's
	// defaults).
	saAcceptHigh = 0.98
	saAcceptLow  = 1e-4
)

// annealSchedule returns the start and end temperatures at which an uphill
// move of the pilot's mean delta is accepted with probability saAcceptHigh
// and saAcceptLow. A pilot that saw no delta falls back to a tenth of the
// current energy's magnitude, and at least 1.
func annealSchedule(deltas *stats.Running, curE float64) (tMax, tMin float64) {
	meanDelta := deltas.Mean()
	if meanDelta <= 0 {
		meanDelta = math.Max(math.Abs(curE)*0.1, 1)
	}
	// exp(-d/T) = p  =>  T = d / -ln(p).
	return meanDelta / -math.Log(saAcceptHigh), meanDelta / -math.Log(saAcceptLow)
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
		chain := make([]mapspace.Mapping, t.remainingEvals(saPilotMoves))
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
	tMax, tMin := annealSchedule(&deltas, curE)

	// cur and next swap storage on acceptance, so each neighbor is written
	// over the last rejected (or superseded) one. One clock read per move
	// serves both the budget test and the schedule.
	var next mapspace.Mapping
	for {
		now := t.clock()
		if t.exhaustedAt(now) {
			break
		}
		progress := t.progress(now)
		ctx.Space.PerturbInto(rng, &cur, &next)
		nextE, err := t.payEval(&next)
		if err != nil {
			return Result{}, err
		}
		delta := nextE - curE
		accept := delta <= 0
		if !accept {
			// Only the Metropolis test reads the temperature.
			temp := tMax * math.Pow(tMin/tMax, progress)
			accept = rng.Float64() < math.Exp(-delta/temp)
		}
		if accept {
			cur, next, curE = next, cur, nextE
		}
	}
	return t.result(s.Name()), nil
}
