package search

import (
	"context"
	"errors"
	"fmt"
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
		if err := trajectoryRule(&res); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
		if res.Method != s.Name() {
			t.Errorf("%s: result method %q", s.Name(), res.Method)
		}
	}
}

// trajectoryRule checks a result's trajectory against the recording rule
// as far as the result alone shows it: samples in eval order, every
// non-improving sample at a power-of-two eval, and every power of two up
// to Evals present.
func trajectoryRule(res *Result) error {
	best, last, next := math.Inf(1), 0, 1
	for _, s := range res.Trajectory {
		if s.Eval <= last {
			return fmt.Errorf("sample at eval %d after eval %d", s.Eval, last)
		}
		last = s.Eval
		if s.Eval > next {
			return fmt.Errorf("power-of-two eval %d not recorded", next)
		}
		if s.Eval == next {
			next *= 2
		} else if s.BestEDP >= best {
			return fmt.Errorf("non-improving sample at eval %d, not a power of two", s.Eval)
		}
		best = min(best, s.BestEDP)
	}
	if next <= res.Evals {
		return fmt.Errorf("power-of-two eval %d not recorded", next)
	}
	return nil
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
		if a.BestEDP == c.BestEDP && a.BestAt(10) == c.BestAt(10) {
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

// TestPaidQueryCharges pins that every paid query, scalar or batched, is
// charged once to Context.Evals and to the budget, and that a context
// without a Counter still pays and records its queries.
func TestPaidQueryCharges(t *testing.T) {
	ctx := conv1dContext(t, 63)
	var ctr costmodel.Counter
	ctx.Evals = &ctr
	rng := stats.NewRNG(5)
	cand := make([]mapspace.Mapping, 7)
	for i := range cand {
		cand[i] = ctx.Space.Random(rng)
	}
	tr := newTracker(ctx, Budget{MaxEvals: 100})
	for i := 0; i < 3; i++ {
		if _, err := tr.payEval(&cand[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.payEvalBatch(cand[3:], nil); err != nil {
		t.Fatal(err)
	}
	if got := ctr.Count(); got != 7 || tr.evals != 7 {
		t.Fatalf("counter = %d, budget = %d after 3 scalar + 4 batch paid queries, want 7 and 7", got, tr.evals)
	}

	ctx.Evals = nil
	bare := newTracker(ctx, Budget{MaxEvals: 100})
	vals, err := bare.payEvalBatch(cand, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(cand) || bare.evals != len(cand) || len(bare.traj) == 0 {
		t.Fatalf("uncounted tracker paid %d values, budget %d, trajectory %d; want %d paid and recorded", len(vals), bare.evals, len(bare.traj), len(cand))
	}
	if ctr.Count() != 7 {
		t.Fatalf("detached counter moved to %d", ctr.Count())
	}
}

// TestPaidQueryStalls pins that a paid query waits QueryLatency before it
// returns, and that the stall leaves the queried value unchanged.
func TestPaidQueryStalls(t *testing.T) {
	ctx := conv1dContext(t, 64)
	m := ctx.Space.Random(stats.NewRNG(6))
	want, err := newTracker(ctx, Budget{MaxEvals: 10}).payEval(&m)
	if err != nil {
		t.Fatal(err)
	}
	ctx.QueryLatency = 5 * time.Millisecond
	tr := newTracker(ctx, Budget{MaxEvals: 10})
	start := time.Now()
	got, err := tr.payEval(&m)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("paid query at 5ms latency returned in %v", elapsed)
	}
	if got != want {
		t.Fatalf("stalled query returned %v, unstalled %v", got, want)
	}
}

// TestPaidQueryStallsAndCharges pins the tracker's paid query: every
// candidate waits QueryLatency in turn and is charged to Evals, while
// offline scoring of the same candidates (MM's trajectory measurement) is
// not charged and returns the same values.
func TestPaidQueryStallsAndCharges(t *testing.T) {
	ctx := conv1dContext(t, 61)
	var ctr costmodel.Counter
	ctx.Evals = &ctr
	const stall = 2 * time.Millisecond
	ctx.QueryLatency = stall
	rng := stats.NewRNG(3)
	cand := make([]mapspace.Mapping, 4)
	for i := range cand {
		cand[i] = ctx.Space.Random(rng)
	}
	tr := newTracker(ctx, Budget{MaxEvals: 100})
	start := time.Now()
	paid, err := tr.payEvalBatch(cand, nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Duration(len(cand))*stall {
		t.Fatalf("%d paid queries took %v, want >= %v: latency not paid", len(cand), elapsed, time.Duration(len(cand))*stall)
	}
	if got := ctr.Count(); got != int64(len(cand)) {
		t.Fatalf("counter reads %d after %d paid queries", got, len(cand))
	}
	free, err := tr.scoreSurrogateBatch(cand, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctr.Count(); got != int64(len(cand)) {
		t.Fatalf("offline scoring was charged: counter reads %d, want %d", got, len(cand))
	}
	for i := range cand {
		if free[i] != paid[i] {
			t.Fatalf("candidate %d: scored %v, paid %v", i, free[i], paid[i])
		}
	}
	if tr.evals != 2*len(cand) {
		t.Fatalf("budget charged %d evals, want %d", tr.evals, 2*len(cand))
	}
}

// TestCanceledStallIsNotCharged pins that cancellation interrupts a paid
// query's stall at once, and that the interrupted query is neither
// charged, recorded nor run.
func TestCanceledStallIsNotCharged(t *testing.T) {
	ctx := conv1dContext(t, 62)
	var ctr costmodel.Counter
	ctx.Evals = &ctr
	ctx.QueryLatency = 10 * time.Second
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx.Ctx = cctx
	tr := newTracker(ctx, Budget{MaxEvals: 100})
	m := ctx.Space.Random(stats.NewRNG(4))
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	val, err := tr.payEval(&m)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v to interrupt a 10s stall", elapsed)
	}
	if err != nil || !math.IsInf(val, 1) {
		t.Fatalf("interrupted query returned (%v, %v), want (+Inf, nil)", val, err)
	}
	if _, err := tr.evalValue(&m, true, &tr.own); !errors.Is(err, context.Canceled) {
		t.Fatalf("paid query on a canceled run: err %v, want context.Canceled", err)
	}
	if ctr.Count() != 0 || tr.evals != 0 || len(tr.traj) != 0 {
		t.Fatalf("interrupted queries charged %d, budget %d, trajectory %d; want none", ctr.Count(), tr.evals, len(tr.traj))
	}
}

// TestCounterSharedAcrossSearches: one Counter charged by two concurrent
// searches (the service's per-backend costmodel_evals_total) sums both,
// and Reset clears it.
func TestCounterSharedAcrossSearches(t *testing.T) {
	var ctr costmodel.Counter
	evals := make([]int, 2)
	var wg sync.WaitGroup
	for i := range evals {
		ctx := conv1dContext(t, int64(70+i))
		ctx.Evals = &ctr
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RandomSearch{}.Search(ctx, Budget{MaxEvals: 50 + 10*i})
			if err != nil {
				t.Error(err)
			}
			evals[i] = res.Evals
		}()
	}
	wg.Wait()
	if got, want := ctr.Count(), int64(evals[0]+evals[1]); got != want || want != 110 {
		t.Fatalf("shared counter = %d, searches paid %v", got, evals)
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
