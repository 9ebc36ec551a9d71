package surrogate

import (
	"fmt"
	"testing"

	"mindmappings/internal/stats"
)

// Surrogate-query throughput benchmarks: PredictBatch / GradientBatch at
// several batch widths, from the 1-row serving shape up. Every benchmark
// normalizes to one *query* per op, so ns/op values are directly
// comparable across widths. The network topology mirrors SmallConfig on CNN-Layer
// (62-wide input, [64 128 128 64] hidden, 12 meta-stats outputs).

const (
	benchInDim   = 62
	benchTensors = 3
)

func benchHidden() []int { return []int{64, 128, 128, 64} }

func benchVectors(n int) [][]float64 {
	rng := stats.NewRNG(11)
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, benchInDim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vecs[i] = v
	}
	return vecs
}

func BenchmarkPredictBatch(b *testing.B) {
	for _, batch := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			sur := newSyntheticSurrogate(b, benchInDim, benchHidden(), benchTensors)
			vecs := benchVectors(batch)
			vals := make([]float64, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				var err error
				if vals, err = sur.PredictBatch(vecs, 1, 1, vals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGradientBatch(b *testing.B) {
	for _, batch := range []int{1, 2, 4, 8, 16, 64} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			sur := newSyntheticSurrogate(b, benchInDim, benchHidden(), benchTensors)
			vecs := benchVectors(batch)
			vals := make([]float64, batch)
			grads := make([][]float64, batch)
			for i := range grads {
				grads[i] = make([]float64, benchInDim)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				var err error
				if vals, grads, err = sur.GradientBatch(vecs, 1, 1, vals, grads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
