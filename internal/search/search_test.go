package search

import (
	"math"
	"sync"
	"testing"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/oracle"
	"mindmappings/internal/stats"
	"mindmappings/internal/surrogate"

	_ "mindmappings/internal/timeloop" // register the reference backend
)

// conv1dContext builds a small, fast search context plus a surrogate
// trained once and shared across tests.
var (
	searchOnce sync.Once
	searchSur  *surrogate.Surrogate
	searchErr  error
)

func conv1dTestConfig() surrogate.Config {
	cfg := surrogate.TinyConfig()
	cfg.HiddenSizes = []int{32, 32}
	cfg.Samples = 2000
	cfg.Problems = 6
	cfg.Train.Epochs = 14
	return cfg
}

func conv1dSurrogate(t testing.TB) *surrogate.Surrogate {
	t.Helper()
	searchOnce.Do(func() {
		cfg := conv1dTestConfig()
		ds, err := surrogate.Generate(loopnest.MustAlgorithm("conv1d"), arch.Default(2), cfg)
		if err != nil {
			searchErr = err
			return
		}
		searchSur, _, searchErr = surrogate.Train(ds, cfg)
	})
	if searchErr != nil {
		t.Fatal(searchErr)
	}
	return searchSur
}

func conv1dContext(t testing.TB, seed int64) *Context {
	t.Helper()
	p, err := loopnest.NewConv1DProblem("search-test", 1024, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Default(2)
	space, err := mapspace.New(a, p)
	if err != nil {
		t.Fatal(err)
	}
	model, err := costmodel.New("timeloop", a, p)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := oracle.Compute(a, p)
	if err != nil {
		t.Fatal(err)
	}
	return &Context{Space: space, Model: model, Bound: bound, Seed: seed}
}

// randomMeanEDP estimates the average cost of uniform mappings, the bar any
// guided search must clear.
func randomMeanEDP(t testing.TB, ctx *Context, n int) float64 {
	t.Helper()
	rng := stats.NewRNG(999)
	var r stats.Running
	for i := 0; i < n; i++ {
		m := ctx.Space.Random(rng)
		c, err := costmodel.Evaluate(nil, ctx.Model, &m)
		if err != nil {
			t.Fatal(err)
		}
		r.Add(ctx.Bound.NormalizeEDP(c.EDP))
	}
	return r.Mean()
}

func allSearchers(t testing.TB) []Searcher {
	return []Searcher{
		RandomSearch{},
		SimulatedAnnealing{},
		GeneticAlgorithm{},
		RL{Hidden: 24},
		MindMappings{Surrogate: conv1dSurrogate(t)},
	}
}

func TestBudgetValidate(t *testing.T) {
	if err := (Budget{}).validate(); err == nil {
		t.Fatal("empty budget accepted")
	}
	if err := (Budget{MaxEvals: -1, MaxTime: time.Second}).validate(); err == nil {
		t.Fatal("negative evals accepted")
	}
	if err := (Budget{MaxEvals: 10}).validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Budget{MaxTime: time.Second}).validate(); err != nil {
		t.Fatal(err)
	}
}

func TestContextValidate(t *testing.T) {
	ctx := conv1dContext(t, 1)
	if err := ctx.validate(); err != nil {
		t.Fatal(err)
	}
	bad := *ctx
	bad.Space = nil
	if err := bad.validate(); err == nil {
		t.Fatal("nil space accepted")
	}
	bad = *ctx
	bad.Bound = oracle.Bound{}
	if err := bad.validate(); err == nil {
		t.Fatal("zero bound accepted")
	}
}

func TestResultBestAt(t *testing.T) {
	r := Result{
		BestEDP: 2,
		Trajectory: []Sample{
			{Eval: 1, Elapsed: time.Millisecond, BestEDP: 10},
			{Eval: 2, Elapsed: 2 * time.Millisecond, BestEDP: 5},
			{Eval: 3, Elapsed: 3 * time.Millisecond, BestEDP: 2},
		},
	}
	if r.BestAt(2) != 5 {
		t.Fatalf("BestAt(2) = %v", r.BestAt(2))
	}
	if r.BestAt(100) != 2 {
		t.Fatalf("BestAt(100) = %v", r.BestAt(100))
	}
	if r.BestAt(0) != 2 {
		t.Fatal("BestAt before any sample should fall back to final")
	}
	if r.BestAtTime(2*time.Millisecond) != 5 {
		t.Fatalf("BestAtTime = %v", r.BestAtTime(2*time.Millisecond))
	}
	if r.BestAtTime(time.Hour) != 2 {
		t.Fatal("BestAtTime beyond end should be final")
	}
}

func TestAllSearchersRespectEvalBudget(t *testing.T) {
	const budget = 120
	for _, s := range allSearchers(t) {
		ctx := conv1dContext(t, 7)
		res, err := s.Search(ctx, Budget{MaxEvals: budget})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Evals != budget {
			t.Errorf("%s: used %d evals, budget %d", s.Name(), res.Evals, budget)
		}
		if len(res.Trajectory) != budget {
			t.Errorf("%s: trajectory has %d samples, want %d", s.Name(), len(res.Trajectory), budget)
		}
		if res.Method != s.Name() {
			t.Errorf("%s: result method %q", s.Name(), res.Method)
		}
	}
}

func TestTrajectoriesMonotoneAndValid(t *testing.T) {
	for _, s := range allSearchers(t) {
		ctx := conv1dContext(t, 11)
		res, err := s.Search(ctx, Budget{MaxEvals: 100})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		prev := math.Inf(1)
		for i, sample := range res.Trajectory {
			if sample.BestEDP > prev+1e-12 {
				t.Fatalf("%s: best-so-far increased at %d: %v -> %v", s.Name(), i, prev, sample.BestEDP)
			}
			prev = sample.BestEDP
		}
		if res.BestEDP != prev {
			t.Fatalf("%s: BestEDP %v != last trajectory %v", s.Name(), res.BestEDP, prev)
		}
		if err := ctx.Space.IsMember(&res.Best); err != nil {
			t.Fatalf("%s: best mapping invalid: %v", s.Name(), err)
		}
		if res.BestEDP < 1 {
			t.Fatalf("%s: best normalized EDP %v below the lower bound", s.Name(), res.BestEDP)
		}
	}
}

func TestGuidedSearchesBeatAverageRandom(t *testing.T) {
	ctx := conv1dContext(t, 13)
	mean := randomMeanEDP(t, ctx, 60)
	for _, s := range allSearchers(t) {
		ctx := conv1dContext(t, 13)
		res, err := s.Search(ctx, Budget{MaxEvals: 200})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.BestEDP > mean*0.5 {
			t.Errorf("%s: best %v did not clearly beat mean random %v", s.Name(), res.BestEDP, mean)
		}
	}
}

func TestSearchDeterministicWithSeed(t *testing.T) {
	for _, s := range []Searcher{RandomSearch{}, SimulatedAnnealing{}, GeneticAlgorithm{},
		MindMappings{Surrogate: conv1dSurrogate(t)}} {
		a, err := s.Search(conv1dContext(t, 21), Budget{MaxEvals: 80})
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Search(conv1dContext(t, 21), Budget{MaxEvals: 80})
		if err != nil {
			t.Fatal(err)
		}
		if a.BestEDP != b.BestEDP {
			t.Errorf("%s: same seed gave %v and %v", s.Name(), a.BestEDP, b.BestEDP)
		}
		c, err := s.Search(conv1dContext(t, 22), Budget{MaxEvals: 80})
		if err != nil {
			t.Fatal(err)
		}
		if a.BestEDP == c.BestEDP && a.Trajectory[10].BestEDP == c.Trajectory[10].BestEDP {
			t.Logf("%s: different seeds coincided (possible but unlikely)", s.Name())
		}
	}
}

func TestTimeBudget(t *testing.T) {
	ctx := conv1dContext(t, 31)
	res, err := RandomSearch{}.Search(ctx, Budget{MaxTime: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < 50*time.Millisecond {
		t.Fatalf("finished in %v, before the 50ms budget", res.Elapsed)
	}
	if res.Elapsed > 2*time.Second {
		t.Fatalf("took %v, way over budget", res.Elapsed)
	}
	if res.Evals == 0 {
		t.Fatal("no evaluations performed")
	}
}

func TestQueryLatencySlowsPaidMethodsOnly(t *testing.T) {
	// With an emulated 2ms reference-model query latency, a black-box
	// method gets ~25 evals in 50ms while Mind Mappings (surrogate-priced)
	// gets far more — the mechanism behind the paper's iso-time results.
	ctx := conv1dContext(t, 41)
	ctx.QueryLatency = 2 * time.Millisecond
	saRes, err := SimulatedAnnealing{}.Search(ctx, Budget{MaxTime: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if saRes.Evals > 40 {
		t.Fatalf("SA performed %d evals in 50ms at 2ms latency", saRes.Evals)
	}

	ctx2 := conv1dContext(t, 41)
	ctx2.QueryLatency = 2 * time.Millisecond
	mmRes, err := MindMappings{Surrogate: conv1dSurrogate(t)}.Search(ctx2, Budget{MaxTime: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if mmRes.Evals < 4*saRes.Evals {
		t.Fatalf("MM (%d evals) not clearly faster per step than SA (%d evals)", mmRes.Evals, saRes.Evals)
	}
}

func TestMindMappingsRequiresSurrogate(t *testing.T) {
	ctx := conv1dContext(t, 51)
	if _, err := (MindMappings{}).Search(ctx, Budget{MaxEvals: 10}); err == nil {
		t.Fatal("accepted nil surrogate")
	}
}

func TestMindMappingsRejectsMismatchedSurrogate(t *testing.T) {
	// A Conv1D surrogate cannot drive a CNN search: vector widths differ.
	p, err := loopnest.NewCNNProblem("cnn", 4, 16, 8, 14, 14, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Default(2)
	space, err := mapspace.New(a, p)
	if err != nil {
		t.Fatal(err)
	}
	model, err := costmodel.New("timeloop", a, p)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := oracle.Compute(a, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Space: space, Model: model, Bound: bound, Seed: 1}
	mm := MindMappings{Surrogate: conv1dSurrogate(t)}
	if _, err := mm.Search(ctx, Budget{MaxEvals: 10}); err == nil {
		t.Fatal("accepted surrogate trained for a different algorithm")
	}
}

func TestSearchersRejectBadBudget(t *testing.T) {
	ctx := conv1dContext(t, 61)
	for _, s := range allSearchers(t) {
		if _, err := s.Search(ctx, Budget{}); err == nil {
			t.Errorf("%s accepted empty budget", s.Name())
		}
	}
}

func TestGATinyBudget(t *testing.T) {
	ctx := conv1dContext(t, 71)
	res, err := GeneticAlgorithm{}.Search(ctx, Budget{MaxEvals: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 20 {
		t.Fatalf("GA used %d evals with budget 20", res.Evals)
	}
}

// The saPilotMoves-move pilot outlasts a 30-eval budget.
func TestSAPilotLargerThanBudget(t *testing.T) {
	ctx := conv1dContext(t, 91)
	res, err := SimulatedAnnealing{}.Search(ctx, Budget{MaxEvals: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 30 {
		t.Fatalf("SA evals = %d", res.Evals)
	}
}

// TestAcceptInjection pins the §4.2 acceptance rule MM applies to every
// random injection: improvements always pass, zero temperature passes
// nothing else, and otherwise the draw u passes exactly when it falls
// below exp(-delta/T).
func TestAcceptInjection(t *testing.T) {
	for _, c := range []struct{ delta, temp, u float64 }{
		{0, 0, 0.999}, {0, 50, 0.999}, {-1e-12, 0, 0.999}, {-3, 50, 0.999}, {math.Inf(-1), 0, 0.5},
	} {
		if !acceptInjection(c.delta, c.temp, c.u) {
			t.Errorf("acceptInjection(%v, %v, %v) rejected an improvement", c.delta, c.temp, c.u)
		}
	}
	for _, delta := range []float64{math.SmallestNonzeroFloat64, 1e-9, 1, 1e300, math.Inf(1)} {
		if acceptInjection(delta, 0, 0) {
			t.Errorf("acceptInjection(%v, 0, 0) accepted a worse mapping at zero temperature", delta)
		}
	}
	for _, c := range []struct{ delta, temp float64 }{{10, 50}, {33, 50}, {1, 0.5}, {65, 28.125}} {
		p := math.Exp(-c.delta / c.temp)
		if below := math.Nextafter(p, 0); !acceptInjection(c.delta, c.temp, below) {
			t.Errorf("delta %v T %v: u %v just below %v rejected", c.delta, c.temp, below, p)
		}
		for _, u := range []float64{p, math.Nextafter(p, 1)} {
			if acceptInjection(c.delta, c.temp, u) {
				t.Errorf("delta %v T %v: u %v at or above %v accepted", c.delta, c.temp, u, p)
			}
		}
	}
}

func TestRewardShaping(t *testing.T) {
	if rewardFor(10, 100) <= rewardFor(100, 100) {
		t.Fatal("improving must beat standing still")
	}
	if rewardFor(1000, 100) >= 0 {
		t.Fatal("getting worse must be penalized")
	}
}

func TestSoftUpdate(t *testing.T) {
	sur := conv1dSurrogate(t) // just to reuse package deps
	_ = sur
	rng := stats.NewRNG(1)
	src, err := newTestMLP(rng)
	if err != nil {
		t.Fatal(err)
	}
	target := src.Clone()
	// Perturb source.
	src.Layers[0].W.Data[0] = 10
	target.Layers[0].W.Data[0] = 0
	softUpdate(target, src, 0.1)
	if math.Abs(target.Layers[0].W.Data[0]-1) > 1e-12 {
		t.Fatalf("soft update gave %v, want 1", target.Layers[0].W.Data[0])
	}
}
