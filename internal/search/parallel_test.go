package search

import (
	"testing"
)

// batchedSearchers returns every searcher whose evaluation loop goes
// through the batched tracker path, for batch/scalar/parallel equivalence
// tests.
func batchedSearchers(t testing.TB) []Searcher {
	sur := conv1dSurrogate(t)
	return []Searcher{
		RandomSearch{},
		SimulatedAnnealing{},
		GeneticAlgorithm{},
		BeamSearch{},
		MindMappings{Surrogate: sur},
		MindMappings{Surrogate: sur, Chains: 3},
		SurrogateSA{Surrogate: sur},
	}
}

func mustSearch(t *testing.T, s Searcher, ctx *Context, budget Budget) Result {
	t.Helper()
	res, err := s.Search(ctx, budget)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return res
}

// sameTrajectory asserts two results are bit-identical in everything
// deterministic (Elapsed is wall-clock and excluded).
func sameTrajectory(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.BestEDP != b.BestEDP {
		t.Fatalf("%s: BestEDP %v vs %v", label, a.BestEDP, b.BestEDP)
	}
	if a.Evals != b.Evals {
		t.Fatalf("%s: Evals %d vs %d", label, a.Evals, b.Evals)
	}
	if len(a.Trajectory) != len(b.Trajectory) {
		t.Fatalf("%s: trajectory lengths %d vs %d", label, len(a.Trajectory), len(b.Trajectory))
	}
	for i := range a.Trajectory {
		if a.Trajectory[i].Eval != b.Trajectory[i].Eval ||
			a.Trajectory[i].BestEDP != b.Trajectory[i].BestEDP {
			t.Fatalf("%s: trajectory[%d] = {%d %v} vs {%d %v}", label, i,
				a.Trajectory[i].Eval, a.Trajectory[i].BestEDP,
				b.Trajectory[i].Eval, b.Trajectory[i].BestEDP)
		}
	}
}

// TestBatchAndScalarPathsBitIdentical is the acceptance-criterion guard:
// for a fixed seed at Parallelism <= 1, the batched evaluation pipeline
// (batch GEMM surrogate queries, payEvalBatch) and the forced-scalar path
// produce bit-identical trajectories for every batched searcher.
func TestBatchAndScalarPathsBitIdentical(t *testing.T) {
	budget := Budget{MaxEvals: 260}
	for _, s := range batchedSearchers(t) {
		batch := conv1dContext(t, 11)
		scalar := conv1dContext(t, 11)
		scalar.Scalar = true
		got := mustSearch(t, s, batch, budget)
		want := mustSearch(t, s, scalar, budget)
		sameTrajectory(t, s.Name()+" batch-vs-scalar", got, want)
	}
}

// TestParallelismIsDeterministic pins that fanning batched cost-model
// scoring across workers changes wall-clock only: Parallelism 1 and 4
// produce bit-identical trajectories. Run under -race this also exercises
// the worker pool for data races across gradient, genetic, annealing,
// beam, and random searchers.
func TestParallelismIsDeterministic(t *testing.T) {
	budget := Budget{MaxEvals: 260}
	for _, s := range batchedSearchers(t) {
		serial := conv1dContext(t, 23)
		parallel := conv1dContext(t, 23)
		parallel.Parallelism = 4
		want := mustSearch(t, s, serial, budget)
		got := mustSearch(t, s, parallel, budget)
		sameTrajectory(t, s.Name()+" parallel-vs-serial", got, want)
	}
}

// TestMultiChainGradientSearch sanity-checks the Chains knob: budget
// respected, trajectory monotone, and it must still beat average random
// mappings.
func TestMultiChainGradientSearch(t *testing.T) {
	ctx := conv1dContext(t, 5)
	mm := MindMappings{Surrogate: conv1dSurrogate(t), Chains: 4}
	res := mustSearch(t, mm, ctx, Budget{MaxEvals: 400})
	if res.Evals > 400 {
		t.Fatalf("Chains=4 overran the budget: %d evals", res.Evals)
	}
	if err := ctx.Space.IsMember(&res.Best); err != nil {
		t.Fatalf("best mapping invalid: %v", err)
	}
	mean := randomMeanEDP(t, ctx, 200)
	if res.BestEDP >= mean {
		t.Fatalf("multi-chain MM EDP %v not better than random mean %v", res.BestEDP, mean)
	}
	for i := 1; i < len(res.Trajectory); i++ {
		if res.Trajectory[i].BestEDP > res.Trajectory[i-1].BestEDP {
			t.Fatal("trajectory not monotone")
		}
	}
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
