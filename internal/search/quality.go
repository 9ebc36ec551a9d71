package search

import "math"

// Convergence summarizes how a run converged, derived entirely from the
// recorded trajectory and the eval count. Every improvement is a recorded
// sample (see Sample), so the best-so-far frontier in Result.Trajectory is
// exact, and these metrics read nothing else.
//
// The paper's search methods are judged by sample efficiency — how fast a
// run approaches its final best — not just the final cost, so this is the
// shape regressions in search *quality* show up in: EvalsToWithin10Pct
// drifting up, ImprovementRate collapsing early, StallFraction growing.
type Convergence struct {
	// FirstBest and FinalBest bracket the run: best-so-far after the first
	// recorded sample and after the last.
	FirstBest float64 `json:"first_best"`
	FinalBest float64 `json:"final_best"`
	// Improvement is the total fractional gain, (first−final)/first.
	Improvement float64 `json:"improvement"`
	// EvalsToWithin10Pct / EvalsToWithin1Pct are the 1-based evaluation
	// indices at which the best-so-far first came within 10% / 1% of
	// FinalBest (0 = the trajectory is empty). Lower is more
	// sample-efficient.
	EvalsToWithin10Pct int `json:"evals_to_within_10pct"`
	EvalsToWithin1Pct  int `json:"evals_to_within_1pct"`
	// Improvements counts the improving trajectory samples after the first.
	Improvements int `json:"improvements"`
	// ImprovementRate is an EWMA (α = 0.3, newest-weighted) of the
	// fractional gain per evaluation across successive improvements — a
	// run still making progress at the end has a visibly nonzero rate.
	ImprovementRate float64 `json:"improvement_rate_ewma"`
	// LastImprovementEval is the evaluation index of the final improvement.
	LastImprovementEval int `json:"last_improvement_eval"`
	// StallEvals / StallFraction measure the trailing no-improvement run:
	// evaluations spent after the last improvement, absolute and as a
	// fraction of the whole budget.
	StallEvals    int     `json:"stall_evals"`
	StallFraction float64 `json:"stall_fraction"`
	// Stalled flags a run that spent at least half its evaluations (and at
	// least 50) past its last improvement — budget that bought nothing.
	Stalled bool `json:"stalled"`
}

// ewmaAlpha weights the newest improvement step at 0.3 — recent progress
// dominates, but one lucky step cannot hide a long flat tail.
const ewmaAlpha = 0.3

// ComputeConvergence derives convergence metrics from a recorded
// trajectory and the total evaluation count. A nil/empty trajectory
// returns the zero value.
func ComputeConvergence(traj []Sample, evals int) Convergence {
	if len(traj) == 0 {
		return Convergence{}
	}
	var c Convergence
	c.FirstBest = traj[0].BestEDP
	c.FinalBest = traj[len(traj)-1].BestEDP
	if c.FirstBest > 0 && !math.IsInf(c.FirstBest, 0) {
		c.Improvement = (c.FirstBest - c.FinalBest) / c.FirstBest
	}

	// Walk the frontier once: improvements, EWMA rate, time-to-within-x%.
	within10 := c.FinalBest * 1.10
	within1 := c.FinalBest * 1.01
	best := math.Inf(1)
	bestEval := 0
	c.LastImprovementEval = traj[0].Eval
	for _, s := range traj {
		if s.BestEDP < best {
			if !math.IsInf(best, 1) && best > 0 && s.Eval > bestEval {
				c.Improvements++
				gain := (best - s.BestEDP) / best / float64(s.Eval-bestEval)
				if c.Improvements == 1 {
					c.ImprovementRate = gain
				} else {
					c.ImprovementRate = ewmaAlpha*gain + (1-ewmaAlpha)*c.ImprovementRate
				}
			}
			if c.EvalsToWithin10Pct == 0 && s.BestEDP <= within10 {
				c.EvalsToWithin10Pct = s.Eval
			}
			if c.EvalsToWithin1Pct == 0 && s.BestEDP <= within1 {
				c.EvalsToWithin1Pct = s.Eval
			}
			best = s.BestEDP
			bestEval = s.Eval
			c.LastImprovementEval = s.Eval
		}
	}

	if evals < traj[len(traj)-1].Eval {
		evals = traj[len(traj)-1].Eval
	}
	c.StallEvals = evals - c.LastImprovementEval
	if evals > 0 {
		c.StallFraction = float64(c.StallEvals) / float64(evals)
	}
	c.Stalled = c.StallEvals >= 50 && c.StallFraction >= 0.5
	return c
}

// Convergence is the Result's trajectory reduced to quality metrics.
func (r *Result) Convergence() Convergence {
	return ComputeConvergence(r.Trajectory, r.Evals)
}
