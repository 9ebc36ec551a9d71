package search

import (
	"testing"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/obs"
	"mindmappings/internal/oracle"
	"mindmappings/internal/stats"
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

// BenchmarkSearchGA keeps its "batch" sub-benchmark name so runs line up
// with BENCH_search.json's BenchmarkSearchGA/batch rows.
func BenchmarkSearchGA(b *testing.B) {
	b.Run("batch", func(b *testing.B) {
		runSearchBench(b, GeneticAlgorithm{}, func(seed int64) *Context {
			return benchSearchContext(b, seed)
		})
	})
}

// BenchmarkSearchSA is BenchmarkSearchGA/batch for simulated annealing: a
// batched pilot chain, then one perturbation and one paid query per
// Metropolis move.
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
		ctx.Model = costmodel.WithTiming(ctx.Model, 64, func(d time.Duration) {
			hist.Observe(d.Seconds())
		})
		ctx.Progress = func(p Progress) { stream.Publish(p) }
		return ctx
	})
}

// BenchmarkSearchGAQueryLatency replays the paper's setting, where each
// reference-cost-model query takes real time (Timeloop queries take
// milliseconds; 100µs emulated here): every query pays its stall in
// turn, as the paper's fixed-time comparison charges them.
func BenchmarkSearchGAQueryLatency(b *testing.B) {
	const evals = 400
	b.Run("serial", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			ctx := benchSearchContext(b, int64(i))
			ctx.QueryLatency = 100 * time.Microsecond
			res, err := GeneticAlgorithm{}.Search(ctx, Budget{MaxEvals: evals})
			if err != nil {
				b.Fatal(err)
			}
			total += res.Evals
		}
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "evals/s")
	})
}

// BenchmarkPayEvalBatch isolates the tracker's batch pipeline (no search
// heuristics): cost of evaluating a 64-candidate batch per candidate.
func BenchmarkPayEvalBatch(b *testing.B) {
	b.Run("batch", func(b *testing.B) {
		ctx := benchSearchContext(b, 1)
		rng := stats.NewRNG(2)
		cand := make([]mapspace.Mapping, 64)
		for i := range cand {
			cand[i] = ctx.Space.Random(rng)
		}
		t := newTracker(ctx, Budget{MaxEvals: 1 << 30})
		var vals []float64
		var err error
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(cand) {
			if vals, err = t.payEvalBatch(cand, vals); err != nil {
				b.Fatal(err)
			}
			t.traj = t.traj[:0] // keep the trajectory from growing unboundedly
		}
	})
}
