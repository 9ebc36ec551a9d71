package search

import (
	"context"
	"testing"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/obs"
	"mindmappings/internal/oracle"
)

// End-to-end search throughput benchmarks: evaluations per second through
// the full tracker pipeline (cost model + budget accounting + trajectory).
// BENCH_search.json records these as the repo's perf trajectory;
// b.ReportMetric exposes evals/s directly.

func benchSearchContext(b testing.TB, seed int64) *Context {
	b.Helper()
	p, err := loopnest.NewCNNProblem("bench", 16, 256, 256, 14, 14, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	a := arch.Default(2)
	space, err := mapspace.New(a, p)
	if err != nil {
		b.Fatal(err)
	}
	model, err := costmodel.New("timeloop", a, p)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := oracle.Compute(a, p)
	if err != nil {
		b.Fatal(err)
	}
	return &Context{Space: space, Model: model, Bound: bound, Seed: seed}
}

func runSearchBench(b *testing.B, s Searcher, mk func(seed int64) *Context) {
	const evals = 2000
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		ctx := mk(int64(i))
		res, err := s.Search(ctx, Budget{MaxEvals: evals})
		if err != nil {
			b.Fatal(err)
		}
		total += res.Evals
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "evals/s")
}

// BenchmarkSearchGA keeps its "batch" sub-benchmark name, from when GA
// paid for each generation as one batch, so runs line up with
// BENCH_search.json's BenchmarkSearchGA/batch rows.
func BenchmarkSearchGA(b *testing.B) {
	b.Run("batch", func(b *testing.B) {
		runSearchBench(b, GeneticAlgorithm{}, func(seed int64) *Context {
			return benchSearchContext(b, seed)
		})
	})
}

// BenchmarkSearchSA is BenchmarkSearchGA/batch for simulated annealing:
// one perturbation and one paid query per pilot and Metropolis move.
func BenchmarkSearchSA(b *testing.B) {
	runSearchBench(b, SimulatedAnnealing{}, func(seed int64) *Context {
		return benchSearchContext(b, seed)
	})
}

// BenchmarkSearchGAInstrumented runs the same GA workload as
// BenchmarkSearchGA/batch with the serving stack's full observability
// load attached: a sampled eval-latency histogram (1-in-64, the service's
// rate) and a live Progress hook publishing a trajectory event into a
// bounded stream per recorded sample — exactly what a search job pays
// when /metrics and /events are being watched.
// BENCH_search.json records this against the uninstrumented row; the gap
// is the instrumentation overhead and must stay within noise.
func BenchmarkSearchGAInstrumented(b *testing.B) {
	hist := obs.NewHistogram(obs.ExpBuckets(100e-9, 4, 14))
	stream := obs.NewStream[Progress](256)
	runSearchBench(b, GeneticAlgorithm{}, func(seed int64) *Context {
		ctx := benchSearchContext(b, seed)
		ctx.Model = &sampledTiming{Evaluator: ctx.Model, hist: hist}
		ctx.Progress = func(p Progress) { stream.Publish(p) }
		return ctx
	})
}

// sampledTiming times every 64th evaluation into hist, as the service's
// job evaluator does for costmodel_eval_seconds.
type sampledTiming struct {
	costmodel.Evaluator
	hist *obs.Histogram
	n    int64
}

func (e *sampledTiming) EvaluateInto(ctx context.Context, m *mapspace.Mapping, c *costmodel.Cost) error {
	if e.n++; e.n%64 != 0 {
		return e.Evaluator.EvaluateInto(ctx, m, c)
	}
	start := time.Now()
	err := e.Evaluator.EvaluateInto(ctx, m, c)
	e.hist.ObserveDuration(time.Since(start))
	return err
}
