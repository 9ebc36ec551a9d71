package search

import (
	"math"
	"testing"
	"time"
)

func trajFrom(points ...[2]float64) []Sample {
	out := make([]Sample, len(points))
	for i, p := range points {
		out[i] = Sample{Eval: int(p[0]), Elapsed: time.Duration(i) * time.Millisecond, BestEDP: p[1]}
	}
	return out
}

func TestComputeConvergenceEmpty(t *testing.T) {
	if c := ComputeConvergence(nil, 100); c != (Convergence{}) {
		t.Fatalf("empty trajectory → %+v, want zero value", c)
	}
}

func TestComputeConvergenceBasics(t *testing.T) {
	// 100 → 20 → 11 → 10.5 → 10, finishing at eval 40 of a 200-eval run.
	traj := trajFrom([2]float64{1, 100}, [2]float64{5, 20}, [2]float64{10, 11}, [2]float64{20, 10.5}, [2]float64{40, 10})
	c := ComputeConvergence(traj, 200)
	if c.FirstBest != 100 || c.FinalBest != 10 {
		t.Fatalf("bracket = %v..%v", c.FirstBest, c.FinalBest)
	}
	if math.Abs(c.Improvement-0.9) > 1e-9 {
		t.Fatalf("improvement = %v, want 0.9", c.Improvement)
	}
	// within 10% of final best (≤ 11) first happens at eval 10; within 1%
	// (≤ 10.1) at eval 40.
	if c.EvalsToWithin10Pct != 10 || c.EvalsToWithin1Pct != 40 {
		t.Fatalf("within10 = %d within1 = %d, want 10/40", c.EvalsToWithin10Pct, c.EvalsToWithin1Pct)
	}
	if c.Improvements != 4 {
		t.Fatalf("improvements = %d, want 4", c.Improvements)
	}
	if c.ImprovementRate <= 0 {
		t.Fatalf("improvement rate = %v, want > 0", c.ImprovementRate)
	}
	if c.LastImprovementEval != 40 || c.StallEvals != 160 {
		t.Fatalf("last improvement %d, stall %d, want 40/160", c.LastImprovementEval, c.StallEvals)
	}
	if math.Abs(c.StallFraction-0.8) > 1e-9 || !c.Stalled {
		t.Fatalf("stall fraction = %v stalled = %v, want 0.8/true", c.StallFraction, c.Stalled)
	}
}

func TestComputeConvergenceNoStallWhenImprovingLate(t *testing.T) {
	traj := trajFrom([2]float64{1, 100}, [2]float64{95, 50})
	c := ComputeConvergence(traj, 100)
	if c.StallEvals != 5 || c.Stalled {
		t.Fatalf("late improvement: stall = %d stalled = %v, want 5/false", c.StallEvals, c.Stalled)
	}
}

func TestComputeConvergenceFlatRun(t *testing.T) {
	// Non-improving samples only: one value throughout.
	traj := trajFrom([2]float64{1, 42}, [2]float64{50, 42}, [2]float64{100, 42})
	c := ComputeConvergence(traj, 100)
	if c.Improvement != 0 || c.Improvements != 0 || c.ImprovementRate != 0 {
		t.Fatalf("flat run shows progress: %+v", c)
	}
	// Flat-from-the-start is "within x% of final" at the first sample.
	if c.EvalsToWithin10Pct != 1 || c.EvalsToWithin1Pct != 1 {
		t.Fatalf("flat run within-x%% = %d/%d, want 1/1", c.EvalsToWithin10Pct, c.EvalsToWithin1Pct)
	}
	if c.LastImprovementEval != 1 || c.StallEvals != 99 {
		t.Fatalf("flat run stall accounting: %+v", c)
	}
}

func TestComputeConvergenceEvalFloor(t *testing.T) {
	// evals below the trajectory's own reach is corrected upward.
	traj := trajFrom([2]float64{1, 10}, [2]float64{80, 5})
	c := ComputeConvergence(traj, 0)
	if c.StallEvals != 0 || c.StallFraction != 0 {
		t.Fatalf("eval floor: %+v", c)
	}
}

func TestResultConvergenceFromRealSearch(t *testing.T) {
	// The real searchers must produce self-consistent convergence metrics.
	ctx := conv1dContext(t, 5)
	res, err := (RandomSearch{}).Search(ctx, Budget{MaxEvals: 150})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Convergence()
	if c.FinalBest != res.BestEDP {
		t.Fatalf("final best %v != result best %v", c.FinalBest, res.BestEDP)
	}
	if c.EvalsToWithin10Pct <= 0 || c.EvalsToWithin10Pct > res.Evals {
		t.Fatalf("within-10%% eval %d out of range (evals %d)", c.EvalsToWithin10Pct, res.Evals)
	}
	if c.EvalsToWithin1Pct < c.EvalsToWithin10Pct {
		t.Fatalf("within-1%% (%d) before within-10%% (%d)", c.EvalsToWithin1Pct, c.EvalsToWithin10Pct)
	}
	if c.StallEvals < 0 || c.StallFraction < 0 || c.StallFraction > 1 {
		t.Fatalf("stall out of range: %+v", c)
	}
}
