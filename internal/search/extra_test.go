package search

import (
	"math"
	"testing"
	"time"
)

// Tests for the extension searchers: beam search (paper Table 2's
// Tiramisu/Adams strategy) and surrogate-assisted simulated annealing
// (§5.4.2's hybrid).

func TestBeamSearchRespectsBudget(t *testing.T) {
	ctx := conv1dContext(t, 301)
	res, err := BeamSearch{}.Search(ctx, Budget{MaxEvals: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 150 {
		t.Fatalf("beam used %d evals", res.Evals)
	}
	if err := ctx.Space.IsMember(&res.Best); err != nil {
		t.Fatalf("beam best invalid: %v", err)
	}
	if res.Method != "Beam" {
		t.Fatalf("method name %q", res.Method)
	}
}

func TestBeamSearchImproves(t *testing.T) {
	ctx := conv1dContext(t, 303)
	mean := randomMeanEDP(t, ctx, 50)
	res, err := BeamSearch{}.Search(ctx, Budget{MaxEvals: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestEDP > mean*0.5 {
		t.Fatalf("beam best %v did not beat mean random %v", res.BestEDP, mean)
	}
	// Monotone best-so-far.
	prev := math.Inf(1)
	for _, s := range res.Trajectory {
		if s.BestEDP > prev {
			t.Fatal("trajectory not monotone")
		}
		prev = s.BestEDP
	}
}

// A beamWidth beam is wider than a 10-eval budget's MaxEvals/2.
func TestBeamSearchTinyBudget(t *testing.T) {
	ctx := conv1dContext(t, 305)
	res, err := BeamSearch{}.Search(ctx, Budget{MaxEvals: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 10 {
		t.Fatalf("evals = %d", res.Evals)
	}
}

func TestBeamSearchRejectsBadBudget(t *testing.T) {
	ctx := conv1dContext(t, 306)
	if _, err := (BeamSearch{}).Search(ctx, Budget{}); err == nil {
		t.Fatal("accepted empty budget")
	}
}

func TestSurrogateSARequiresSurrogate(t *testing.T) {
	ctx := conv1dContext(t, 311)
	if _, err := (SurrogateSA{}).Search(ctx, Budget{MaxEvals: 10}); err == nil {
		t.Fatal("accepted nil surrogate")
	}
}

func TestSurrogateSARespectsBudgetAndValidity(t *testing.T) {
	ctx := conv1dContext(t, 313)
	s := SurrogateSA{Surrogate: conv1dSurrogate(t)}
	res, err := s.Search(ctx, Budget{MaxEvals: 120})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 120 {
		t.Fatalf("evals = %d", res.Evals)
	}
	if err := ctx.Space.IsMember(&res.Best); err != nil {
		t.Fatalf("best invalid: %v", err)
	}
	if res.BestEDP < 1 {
		t.Fatalf("normalized EDP %v below bound", res.BestEDP)
	}
}

func TestSurrogateSACheaperPerStepThanPaidSA(t *testing.T) {
	// With emulated reference-model latency, surrogate-assisted SA should
	// complete far more steps per unit time than plain SA — the paper's
	// §5.4.2 argument for hybrid methods.
	ctx := conv1dContext(t, 317)
	ctx.QueryLatency = 2 * time.Millisecond
	paid, err := SimulatedAnnealing{}.Search(ctx, Budget{MaxTime: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx2 := conv1dContext(t, 317)
	ctx2.QueryLatency = 2 * time.Millisecond
	hybrid, err := SurrogateSA{Surrogate: conv1dSurrogate(t)}.Search(ctx2, Budget{MaxTime: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.Evals < 3*paid.Evals {
		t.Fatalf("hybrid SA evals %d not clearly above paid SA evals %d", hybrid.Evals, paid.Evals)
	}
}

func TestMindMappingsAblationKnobs(t *testing.T) {
	sur := conv1dSurrogate(t)
	for _, cfg := range []MindMappings{
		{Surrogate: sur, NoInjection: true},
		{Surrogate: sur, NoPrecondition: true},
		{Surrogate: sur, NoInjection: true, NoPrecondition: true},
	} {
		ctx := conv1dContext(t, 331)
		res, err := cfg.Search(ctx, Budget{MaxEvals: 80})
		if err != nil {
			t.Fatal(err)
		}
		if res.Evals != 80 {
			t.Fatalf("evals = %d", res.Evals)
		}
		if err := ctx.Space.IsMember(&res.Best); err != nil {
			t.Fatalf("ablated MM best invalid: %v", err)
		}
	}
}

func TestMindMappingsNoInjectionIsDeterministicDescent(t *testing.T) {
	sur := conv1dSurrogate(t)
	a, err := MindMappings{Surrogate: sur, NoInjection: true}.Search(conv1dContext(t, 337), Budget{MaxEvals: 60})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MindMappings{Surrogate: sur, NoInjection: true}.Search(conv1dContext(t, 337), Budget{MaxEvals: 60})
	if err != nil {
		t.Fatal(err)
	}
	if a.BestEDP != b.BestEDP {
		t.Fatalf("pure descent not deterministic: %v vs %v", a.BestEDP, b.BestEDP)
	}
}

func TestPatienceConvergence(t *testing.T) {
	// Random search on a tiny space quickly stops improving; patience must
	// cut the run off well before the hard eval cap.
	ctx := conv1dContext(t, 601)
	res, err := RandomSearch{}.Search(ctx, Budget{MaxEvals: 100000, Patience: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals >= 100000 {
		t.Fatal("patience did not trigger")
	}
	// The last 50 evaluations must show no improvement.
	if c := res.Convergence(); c.StallEvals < 50 {
		t.Fatalf("run stopped while still improving: %d evals since the last improvement", c.StallEvals)
	}
}

func TestPatienceValidation(t *testing.T) {
	ctx := conv1dContext(t, 603)
	if _, err := (RandomSearch{}).Search(ctx, Budget{MaxEvals: 10, Patience: -1}); err == nil {
		t.Fatal("negative patience accepted")
	}
	// Patience alone (no hard limit) is rejected: it may never trigger.
	if _, err := (RandomSearch{}).Search(ctx, Budget{Patience: 10}); err == nil {
		t.Fatal("patience-only budget accepted")
	}
}
