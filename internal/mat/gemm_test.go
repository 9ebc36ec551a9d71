package mat

import (
	"math"
	"math/rand"
	"testing"
)

// relTol is the acceptance band against the row-by-row reference. It is
// loose enough for any reordering of ~few-hundred-term float64 dot
// products and tight enough to catch an indexing bug.
const relTol = 1e-12

func closeEnough(got, want float64) bool {
	if got == want {
		return true
	}
	diff := math.Abs(got - want)
	scale := math.Max(math.Abs(got), math.Abs(want))
	return diff <= relTol*math.Max(scale, 1)
}

// TestMulNTMatchesMatVecTolerance is the accuracy band on a second random
// draw: MulNT must land within relTol of the per-row loop on every row. The bitwise
// test is the strict contract the batched surrogate relies on; this one
// names the looser bound a kernel that reorders its sums would still have
// to hold. Shapes cover all four micro-kernel quadrants (blocked/tail rows
// of a x blocked/tail rows of b) and the serving layer widths.
func TestMulNTMatchesMatVecTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ batch, k, n int }{
		{1, 62, 64}, {3, 13, 9}, {4, 64, 128}, {5, 7, 5},
		{8, 128, 128}, {16, 128, 64}, {17, 64, 12}, {64, 62, 64},
	} {
		a := randDense(rng, tc.batch, tc.k)
		b := randDense(rng, tc.n, tc.k)
		dst := NewDense(tc.batch, tc.n)
		MulNT(dst, a, b)
		want := make([]float64, tc.n)
		for r := 0; r < tc.batch; r++ {
			mulNTRowRef(want, b, a.Row(r))
			for j, w := range want {
				if got := dst.At(r, j); !closeEnough(got, w) {
					t.Fatalf("%dx%d*%dT: MulNT[%d][%d]=%v, row loop=%v",
						tc.batch, tc.k, tc.n, r, j, got, w)
				}
			}
		}
	}
}

// TestMulNNMatchesMatTVecTolerance is the backward-path analog, with
// injected zeros so the zero-skip handling is exercised.
func TestMulNNMatchesMatTVecTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct{ batch, k, n int }{
		{1, 12, 64}, {3, 9, 13}, {4, 64, 128}, {5, 5, 7},
		{8, 128, 128}, {16, 128, 62}, {64, 64, 62},
	} {
		a := randDense(rng, tc.batch, tc.k)
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
				if got := dst.At(r, j); !closeEnough(got, w) {
					t.Fatalf("%dx%d*%d: MulNN[%d][%d]=%v, row loop=%v",
						tc.batch, tc.k, tc.n, r, j, got, w)
				}
			}
		}
	}
}

// TestZeroSkipSemantics pins the IEEE edge the zero-skip exists for: a
// zero coefficient must skip its weight row entirely —
// multiplying instead would turn 0*Inf into NaN and poison the output.
func TestZeroSkipSemantics(t *testing.T) {
	// b row 0 holds pathological weights; every sample's coefficient for
	// that row is 0, so dst must see only the finite values from row 1.
	// Five samples cover both the 4-row block and the tail row.
	a := NewDense(5, 2)
	b := NewDense(2, 3)
	b.Data = []float64{math.Inf(1), math.NaN(), math.Inf(-1), 1, 2, 3}
	for r := 0; r < a.Rows; r++ {
		a.Data[r*a.Cols] = 0
		a.Data[r*a.Cols+1] = float64(r) // row 0 of a is all-zero: fully skipped sample
	}
	dst := NewDense(5, 3)
	MulNN(dst, a, b)
	for r := 0; r < 5; r++ {
		y := float64(r)
		want := []float64{1 * y, 2 * y, 3 * y}
		for j, w := range want {
			got := dst.At(r, j)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("row %d col %d: %v leaked through the zero-skip", r, j, got)
			}
			if got != w {
				t.Fatalf("row %d col %d: got %v, want %v", r, j, got, w)
			}
		}
	}
	// The weight-gradient kernel skips the same way: column 0 of a is a
	// zero coefficient for every sample, so b's pathological values in
	// columns 0 and 2 of sample rows never reach dst row 0.
	g := NewDense(2, 3)
	bs := NewDense(5, 3)
	for s := 0; s < 5; s++ {
		bs.Data[s*bs.Cols] = math.Inf(1)
		bs.Data[s*bs.Cols+1] = 1
		bs.Data[s*bs.Cols+2] = math.NaN()
	}
	MulTNAcc(g, a, bs)
	for j, v := range g.Row(0) {
		if v != 0 {
			t.Fatalf("MulTNAcc row 0 col %d: %v leaked through the zero-skip", j, v)
		}
	}
	if got := g.At(1, 1); got != 0+1+2+3+4 {
		t.Fatalf("MulTNAcc row 1 col 1 = %v, want 10", got)
	}
}

// TestMulNTGenericDirect calls the register-blocked kernel directly,
// below MulNT's shape check, on shapes that hit every loop tail.
func TestMulNTGenericDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct{ batch, k, n int }{
		{1, 3, 1}, {4, 8, 4}, {6, 13, 9}, {9, 62, 12},
	} {
		a := randDense(rng, tc.batch, tc.k)
		b := randDense(rng, tc.n, tc.k)
		dst := NewDense(tc.batch, tc.n)
		mulNT(dst, a, b)
		want := make([]float64, tc.n)
		for r := 0; r < tc.batch; r++ {
			mulNTRowRef(want, b, a.Row(r))
			for j, w := range want {
				if got := dst.At(r, j); got != w {
					t.Fatalf("%dx%d*%dT: mulNT[%d][%d]=%v, row loop=%v",
						tc.batch, tc.k, tc.n, r, j, got, w)
				}
			}
		}
	}
}

// TestMulNNGenericDirect pins the backward kernel bitwise, including the
// fused all-nonzero fast path and the mixed zero/nonzero fallback.
func TestMulNNGenericDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, zeroFrac := range []int{0, 3} { // 0: never zero (fused path); 3: ~1/3 zeros (fallback)
		for _, tc := range []struct{ batch, k, n int }{
			{1, 3, 2}, {4, 9, 13}, {7, 12, 5},
		} {
			a := randDense(rng, tc.batch, tc.k)
			if zeroFrac > 0 {
				for i := range a.Data {
					if rng.Intn(zeroFrac) == 0 {
						a.Data[i] = 0
					}
				}
			}
			b := randDense(rng, tc.k, tc.n)
			dst := NewDense(tc.batch, tc.n)
			mulNN(dst, a, b)
			want := make([]float64, tc.n)
			for r := 0; r < tc.batch; r++ {
				mulNNRowRef(want, b, a.Row(r))
				for j, w := range want {
					if got := dst.At(r, j); got != w {
						t.Fatalf("%dx%d*%d zeros=%d: mulNN[%d][%d]=%v, row loop=%v",
							tc.batch, tc.k, tc.n, zeroFrac, r, j, got, w)
					}
				}
			}
		}
	}
}
