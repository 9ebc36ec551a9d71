package costmodel_test

import (
	"context"
	"testing"

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
