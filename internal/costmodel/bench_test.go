package costmodel_test

import (
	"context"
	"testing"
	"time"

	"mindmappings/internal/costmodel"
)

// BenchmarkEvaluatorDispatchTimeloop measures one reference-backend
// evaluation through the Evaluator interface — against timeloop's direct
// BenchmarkEvaluateInto this is the price of the costmodel seam (expected:
// ~0, one devirtualizable call).
func BenchmarkEvaluatorDispatchTimeloop(b *testing.B) {
	f := newFixture(b, 100)
	ev := f.backend(b, "timeloop")
	ctx := context.Background()
	var ws costmodel.Cost
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.EvaluateInto(ctx, &f.ms[i%len(f.ms)], &ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatorDispatchRoofline measures the roofline backend: no
// loop-order analysis, so it should undercut the reference model.
func BenchmarkEvaluatorDispatchRoofline(b *testing.B) {
	f := newFixture(b, 101)
	ev := f.backend(b, "roofline")
	ctx := context.Background()
	var ws costmodel.Cost
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.EvaluateInto(ctx, &f.ms[i%len(f.ms)], &ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCounterMiddleware isolates the accounting wrapper's overhead on
// the hot path (one atomic add per eval).
func BenchmarkCounterMiddleware(b *testing.B) {
	f := newFixture(b, 102)
	var ctr costmodel.Counter
	ev := costmodel.WithCounter(f.backend(b, "timeloop"), &ctr)
	ctx := context.Background()
	var ws costmodel.Cost
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.EvaluateInto(ctx, &f.ms[i%len(f.ms)], &ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimingMiddleware measures the sampled-latency wrapper at the
// service's production sampling rate (1 in 64): 63 of 64 evals pay one
// atomic add, the 64th pays two clock reads. Must stay within noise of
// BenchmarkEvaluatorDispatchTimeloop and keep 0 allocs/op.
func BenchmarkTimingMiddleware(b *testing.B) {
	f := newFixture(b, 105)
	ev := costmodel.WithTiming(f.backend(b, "timeloop"), 64, func(time.Duration) {})
	ctx := context.Background()
	var ws costmodel.Cost
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.EvaluateInto(ctx, &f.ms[i%len(f.ms)], &ws); err != nil {
			b.Fatal(err)
		}
	}
}
