package search

import (
	"testing"
)

func mustSearch(t *testing.T, s Searcher, ctx *Context, budget Budget) Result {
	t.Helper()
	res, err := s.Search(ctx, budget)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return res
}

// TestTrajectoryStride checks the thinning contract: improvements always
// recorded, non-improving samples kept only every stride evals, search
// outcome unchanged.
func TestTrajectoryStride(t *testing.T) {
	full := mustSearch(t, RandomSearch{}, conv1dContext(t, 7), Budget{MaxEvals: 200})
	strided := mustSearch(t, RandomSearch{}, conv1dContext(t, 7), Budget{MaxEvals: 200, TrajectoryStride: 25})
	if full.BestEDP != strided.BestEDP || full.Evals != strided.Evals {
		t.Fatalf("stride changed the search: best %v/%v evals %d/%d",
			full.BestEDP, strided.BestEDP, full.Evals, strided.Evals)
	}
	if len(full.Trajectory) != 200 {
		t.Fatalf("default stride recorded %d samples, want 200", len(full.Trajectory))
	}
	if len(strided.Trajectory) >= len(full.Trajectory) {
		t.Fatalf("stride did not thin the trajectory: %d samples", len(strided.Trajectory))
	}
	// Every stride boundary is present, and best-so-far agrees with the
	// full run wherever both recorded a sample.
	fullAt := map[int]float64{}
	for _, s := range full.Trajectory {
		fullAt[s.Eval] = s.BestEDP
	}
	seen := map[int]bool{}
	for _, s := range strided.Trajectory {
		if want, ok := fullAt[s.Eval]; !ok || want != s.BestEDP {
			t.Fatalf("strided sample at eval %d has best %v, full run says %v", s.Eval, s.BestEDP, want)
		}
		seen[s.Eval] = true
	}
	for e := 25; e <= 200; e += 25 {
		if !seen[e] {
			t.Fatalf("stride boundary eval %d missing from trajectory", e)
		}
	}
	// The final best-so-far value must be recorded (it was an improvement).
	last := strided.Trajectory[len(strided.Trajectory)-1]
	if last.BestEDP != strided.BestEDP {
		t.Fatal("final trajectory sample does not carry the best EDP")
	}
}

func TestNegativeStrideRejected(t *testing.T) {
	_, err := RandomSearch{}.Search(conv1dContext(t, 1), Budget{MaxEvals: 10, TrajectoryStride: -1})
	if err == nil {
		t.Fatal("negative TrajectoryStride must be rejected")
	}
}
