package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// Serving shapes: the surrogate MLP is 62 -> 64 -> 128 -> 128 -> 64 -> 12
// (input encoding through SmallConfig hidden layers to the meta-stats
// head), so the forward GEMMs at batch B are B x {62x64, 64x128,
// 128x128, 128x64, 64x12}. MM queries 1 or 2 rows at a time, and the
// SA+f* pilot chains query batches of a few to 64 rows.
var servingLayers = []struct{ in, out int }{
	{62, 64}, {64, 128}, {128, 128}, {128, 64}, {64, 12},
}

var servingBatches = []int{1, 8, 16, 64}

func BenchmarkMulNTServing(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	for _, batch := range servingBatches {
		for _, l := range servingLayers {
			a := randDense(rng, batch, l.in)
			w := randDense(rng, l.out, l.in)
			dst := NewDense(batch, l.out)
			b.Run(fmt.Sprintf("b%d/%dx%d", batch, l.in, l.out), func(b *testing.B) {
				b.SetBytes(int64(8 * batch * l.in * l.out))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					MulNT(dst, a, w)
				}
			})
		}
	}
}

func BenchmarkMulNNServing(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	// Backward direction: dOut (batch x out) through W (out x in).
	for _, batch := range servingBatches {
		for _, l := range servingLayers {
			a := randDense(rng, batch, l.out)
			w := randDense(rng, l.out, l.in)
			dst := NewDense(batch, l.in)
			b.Run(fmt.Sprintf("b%d/%dx%d", batch, l.out, l.in), func(b *testing.B) {
				b.SetBytes(int64(8 * batch * l.in * l.out))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					MulNN(dst, a, w)
				}
			})
		}
	}
}

// BenchmarkMulNTFullForward runs all five layer GEMMs back to back — one
// whole surrogate forward pass at each batch size.
func BenchmarkMulNTFullForward(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	for _, batch := range servingBatches {
		var acts []*Dense
		var weights []*Dense
		var outs []*Dense
		for _, l := range servingLayers {
			acts = append(acts, randDense(rng, batch, l.in))
			weights = append(weights, randDense(rng, l.out, l.in))
			outs = append(outs, NewDense(batch, l.out))
		}
		b.Run(fmt.Sprintf("b%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range servingLayers {
					MulNT(outs[j], acts[j], weights[j])
				}
			}
		})
	}
}

// BenchmarkMulTNAccTraining is the weight-gradient GEMM of one training
// minibatch (128 rows) for each layer of the tiny recipe's 62 -> 64 -> 64
// -> 12 net, with half the error coefficients zero as ReLU leaves them.
func BenchmarkMulTNAccTraining(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	const batch = 128
	for _, l := range []struct{ in, out int }{{62, 64}, {64, 64}, {64, 12}} {
		delta := randDense(rng, batch, l.out)
		for i := range delta.Data {
			if rng.Intn(2) == 0 {
				delta.Data[i] = 0
			}
		}
		in := randDense(rng, batch, l.in)
		dst := NewDense(l.out, l.in)
		b.Run(fmt.Sprintf("b%d/%dx%d", batch, l.in, l.out), func(b *testing.B) {
			b.SetBytes(int64(8 * batch * l.in * l.out))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulTNAcc(dst, delta, in)
			}
		})
	}
}
