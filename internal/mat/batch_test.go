package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randDense(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// mulNTRowRef is the plain-loop reference for one row of MulNT: dst[j] is
// the dot product of x with row j of m, accumulated from zero in
// ascending column order. It and mulNNRowRef compute what the deleted
// MatVec and MatTVec did; the tests that compare against them keep those
// names.
func mulNTRowRef(dst []float64, m *Dense, x []float64) {
	for j := range dst {
		sum := 0.0
		for c, w := range m.Row(j) {
			sum += w * x[c]
		}
		dst[j] = sum
	}
}

// mulNNRowRef is the plain-loop reference for one row of MulNN: dst is
// zeroed, then y[s] * (row s of m) is added for s in ascending order,
// skipping every zero coefficient.
func mulNNRowRef(dst []float64, m *Dense, y []float64) {
	for c := range dst {
		dst[c] = 0
	}
	for s, ys := range y {
		if ys == 0 {
			continue
		}
		for c, w := range m.Row(s) {
			dst[c] += w * ys
		}
	}
}

// TestMulNTMatchesMatVecBitwise is the bit-identity contract the batched
// surrogate path relies on: every row of a MulNT product must equal the
// plain per-row loop exactly. Shapes cover all four micro-kernel
// quadrants (blocked/tail rows of a x blocked/tail rows of b) and the
// serving layer widths.
func TestMulNTMatchesMatVecBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ batch, k, n int }{
		{1, 13, 9}, {2, 13, 9}, {3, 13, 9}, {4, 13, 9}, {5, 13, 9},
		{7, 13, 9}, {8, 13, 9}, {16, 13, 9}, {17, 13, 9},
		{1, 62, 64}, {4, 64, 128}, {5, 7, 5}, {8, 128, 128},
		{16, 128, 64}, {17, 64, 12}, {64, 62, 64},
	} {
		a := randDense(rng, tc.batch, tc.k)
		b := randDense(rng, tc.n, tc.k)
		dst := NewDense(tc.batch, tc.n)
		MulNT(dst, a, b)
		want := make([]float64, tc.n)
		for r := 0; r < tc.batch; r++ {
			mulNTRowRef(want, b, a.Row(r))
			for j, w := range want {
				if got := dst.At(r, j); got != w {
					t.Fatalf("%dx%d*%dT: MulNT[%d][%d]=%v, row loop=%v",
						tc.batch, tc.k, tc.n, r, j, got, w)
				}
			}
		}
	}
}

// TestMulNNMatchesMatTVecBitwise pins the backward-path analog: each MulNN
// row must equal the per-row loop exactly, including the zero-skip.
func TestMulNNMatchesMatTVecBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ batch, k, n int }{
		{1, 9, 13}, {2, 9, 13}, {4, 9, 13}, {5, 9, 13}, {8, 9, 13},
		{11, 9, 13}, {1, 12, 64}, {3, 9, 13}, {4, 64, 128}, {5, 5, 7},
		{8, 128, 128}, {16, 128, 62}, {64, 64, 62},
	} {
		a := randDense(rng, tc.batch, tc.k)
		// Inject zeros to exercise the skip path.
		for i := range a.Data {
			if rng.Intn(3) == 0 {
				a.Data[i] = 0
			}
		}
		b := randDense(rng, tc.k, tc.n)
		dst := NewDense(tc.batch, tc.n)
		MulNN(dst, a, b)
		want := make([]float64, tc.n)
		for r := 0; r < tc.batch; r++ {
			mulNNRowRef(want, b, a.Row(r))
			for j, w := range want {
				if got := dst.At(r, j); got != w {
					t.Fatalf("%dx%d*%d: MulNN[%d][%d]=%v, row loop=%v",
						tc.batch, tc.k, tc.n, r, j, got, w)
				}
			}
		}
	}
}

// TestMulTNAccMatchesRankOneLoopBitwise pins the training contract: each
// element of a MulTNAcc accumulation equals the per-sample rank-1 loop
// (dst[r][c] += a[s][r]*b[s][c] for s in order, zero coefficients
// skipped) bit for bit, starting from a nonzero accumulator. Zeros are
// injected so output rows see every count of nonzero rows modulo the
// kernel's 4-row block, and signed zeros reach the skip.
func TestMulTNAccMatchesRankOneLoopBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ batch, m, n int }{
		{1, 3, 5}, {2, 3, 5}, {3, 7, 4}, {4, 5, 9}, {5, 5, 9}, {7, 9, 13},
		{8, 12, 62}, {13, 32, 62}, {32, 12, 32}, {128, 32, 62},
	} {
		for _, zeroFrac := range []int{0, 2, 3, 5} {
			a := randDense(rng, tc.batch, tc.m)
			for i := range a.Data {
				if zeroFrac > 0 && rng.Intn(zeroFrac) == 0 {
					a.Data[i] = math.Copysign(0, rng.NormFloat64())
				}
			}
			b := randDense(rng, tc.batch, tc.n)
			b.Data[0] = 0
			dst := randDense(rng, tc.m, tc.n)
			want := dst.Clone()
			for s := 0; s < tc.batch; s++ {
				for r := 0; r < tc.m; r++ {
					y := a.At(s, r)
					if y == 0 {
						continue
					}
					row := want.Row(r)
					for c, x := range b.Row(s) {
						row[c] += y * x
					}
				}
			}
			MulTNAcc(dst, a, b)
			for i, w := range want.Data {
				if got := dst.Data[i]; math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("%+v zeros 1/%d: dst[%d]=%v, rank-1 loop=%v", tc, zeroFrac, i, got, w)
				}
			}
		}
	}
}

func TestMulNNOverwritesPriorContents(t *testing.T) {
	a := NewDense(2, 2)
	b := NewDense(2, 2)
	dst := NewDense(2, 2)
	for i := range dst.Data {
		dst.Data[i] = 99
	}
	MulNN(dst, a, b) // all-zero operands must produce an all-zero product
	for i, v := range dst.Data {
		if v != 0 {
			t.Fatalf("dst[%d] = %v, want 0", i, v)
		}
	}
}

func TestAddToRows(t *testing.T) {
	m := NewDense(3, 2)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	AddToRows(m, []float64{10, 20})
	want := []float64{10, 21, 12, 23, 14, 25}
	for i, v := range want {
		if m.Data[i] != v {
			t.Fatalf("AddToRows[%d] = %v, want %v", i, m.Data[i], v)
		}
	}
}

func TestBatchKernelShapePanics(t *testing.T) {
	cases := []func(){
		func() { MulNT(NewDense(2, 2), NewDense(2, 3), NewDense(2, 4)) },
		func() { MulNT(NewDense(3, 2), NewDense(2, 3), NewDense(2, 3)) },
		func() { MulNN(NewDense(2, 3), NewDense(2, 4), NewDense(3, 3)) },
		func() { AddToRows(NewDense(2, 3), []float64{1}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected shape panic", i)
				}
			}()
			f()
		}()
	}
}
