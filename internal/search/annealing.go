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
	t, err := newTracker(ctx, budget)
	if err != nil {
		return Result{}, err
	}
	return anneal(ctx, t, s.Name(), ctx.Seed+211, t.payEval)
}

// anneal runs the annealing chain that SimulatedAnnealing and SurrogateSA
// share, from a random start, with rng seed: a pilot phase of
// saPilotMoves accepted moves tunes the schedule, then Metropolis runs to
// the end of t's budget. energy pays for (or scores) one candidate through
// t and returns the value the chain anneals.
func anneal(ctx *Context, t *tracker, name string, seed int64, energy func(*mapspace.Mapping) (float64, error)) (Result, error) {
	rng := stats.NewRNG(seed)
	cur := ctx.Space.Random(rng)
	curE, err := energy(&cur)
	if err != nil {
		return Result{}, err
	}

	// cur and next swap storage after every accepted move, so each
	// neighbor is written over the last rejected (or superseded) one.
	var next mapspace.Mapping

	// Pilot phase: free exploration (all moves accepted) to estimate the
	// typical uphill delta. These moves consume budget like any other.
	var deltas stats.Running
	for i := 0; i < saPilotMoves && !t.exhausted(); i++ {
		ctx.Space.PerturbInto(rng, &cur, &next)
		nextE, err := energy(&next)
		if err != nil {
			return Result{}, err
		}
		if d := math.Abs(nextE - curE); d > 0 {
			deltas.Add(d)
		}
		cur, next, curE = next, cur, nextE
	}
	tMax, tMin := annealSchedule(&deltas, curE)

	// One clock read per move serves both the budget test and the
	// schedule.
	for {
		now := t.clock()
		if t.exhaustedAt(now) {
			break
		}
		progress := t.progress(now)
		ctx.Space.PerturbInto(rng, &cur, &next)
		nextE, err := energy(&next)
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
	return t.result(name), nil
}
