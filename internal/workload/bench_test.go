package workload_test

import (
	"context"
	"math/rand"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	_ "mindmappings/internal/timeloop" // register the timeloop and roofline backends
	"mindmappings/internal/workload"
)

// BenchmarkCompileSpec measures the einsum front-end itself: parse +
// validate + lower of the largest built-in spec. Compilation happens once
// per process per workload (registration) and once per inline request, so
// it must stay trivially cheap next to even a single cost-model query.
func BenchmarkCompileSpec(b *testing.B) {
	spec := workload.Spec{
		Name: "bench-cnn",
		Expr: "Outputs[N,K,X,Y] += Weights[K,C,R,S] * Inputs[N,C,X+R,Y+S]",
		Dims: []string{"N", "K", "C", "X", "Y", "R", "S"},
	}
	for i := 0; i < b.N; i++ {
		if _, err := workload.Compile(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadBatchEval measures reference-cost-model batch
// evaluation throughput per registered workload — the per-workload rows
// recorded in BENCH_search.json. The spec-derived footprint closures sit
// on the hot path of every evaluation, so this guards the declarative
// layer's overhead across the whole registry.
func BenchmarkWorkloadBatchEval(b *testing.B) {
	const batch = 64
	for _, name := range loopnest.AlgorithmNames() {
		algo, err := loopnest.AlgorithmByName(name)
		if err != nil {
			b.Fatal(err)
		}
		shape := make([]int, algo.NumDims())
		for d := range shape {
			shape[d] = algo.SampleSpace[d][0]
		}
		prob, err := algo.NewProblem(name, shape)
		if err != nil {
			b.Fatal(err)
		}
		a := arch.Default(len(algo.Tensors) - 1)
		space, err := mapspace.New(a, prob)
		if err != nil {
			b.Fatal(err)
		}
		model, err := costmodel.New("", a, prob)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		ms := make([]mapspace.Mapping, batch)
		for i := range ms {
			ms[i] = space.Random(rng)
		}
		costs := make([]costmodel.Cost, batch)
		errs := make([]error, batch)
		b.Run(name, func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model.EvaluateBatchInto(ctx, ms, costs, errs)
			}
			b.StopTimer()
			for i := range errs {
				if errs[i] != nil {
					b.Fatal(errs[i])
				}
			}
			evalsPerOp := float64(batch)
			b.ReportMetric(evalsPerOp*float64(b.N)/b.Elapsed().Seconds(), "evals/s")
		})
	}
}
