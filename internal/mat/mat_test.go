package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("NewDense must be zeroed")
		}
	}
}

func TestNewDensePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0x3 matrix")
		}
	}()
	NewDense(0, 3)
}

func TestAtSetRow(t *testing.T) {
	m := NewDense(2, 2)
	m.Data[2] = 7 // (1, 0)
	if m.At(1, 0) != 7 {
		t.Fatalf("At(1,0) = %v", m.At(1, 0))
	}
	row := m.Row(1)
	row[1] = 9 // view semantics
	if m.At(1, 1) != 9 {
		t.Fatal("Row must be a view, not a copy")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewDense(1, 2)
	m.Data[0] = 1
	c := m.Clone()
	c.Data[0] = 5
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestZeroScaleAddScaled(t *testing.T) {
	m := NewDense(1, 3)
	copy(m.Data, []float64{1, 2, 3})
	m.Scale(2)
	if m.Data[2] != 6 {
		t.Fatalf("Scale: %v", m.Data)
	}
	other := NewDense(1, 3)
	copy(other.Data, []float64{1, 1, 1})
	m.AddScaled(-2, other)
	if m.Data[0] != 0 || m.Data[1] != 2 || m.Data[2] != 4 {
		t.Fatalf("AddScaled: %v", m.Data)
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestAddScaledShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(1, 2).AddScaled(1, NewDense(2, 1))
}

// TestMatVecKnown and TestMatTVecKnown check the matrix-vector products
// w·x and wᵀ·y, which are 1-row MulNT and MulNN, on hand-computed numbers.
func TestMatVecKnown(t *testing.T) {
	w := &Dense{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	x := &Dense{Rows: 1, Cols: 3, Data: []float64{1, 0, -1}}
	dst := NewDense(1, 2)
	MulNT(dst, x, w)
	if dst.Data[0] != -2 || dst.Data[1] != -2 {
		t.Fatalf("MulNT = %v, want [-2 -2]", dst.Data)
	}
}

func TestMatTVecKnown(t *testing.T) {
	w := &Dense{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	y := &Dense{Rows: 1, Cols: 2, Data: []float64{1, -1}}
	dst := NewDense(1, 3)
	MulNN(dst, y, w)
	want := []float64{-3, -3, -3}
	for i := range want {
		if dst.Data[i] != want[i] {
			t.Fatalf("MulNN = %v, want %v", dst.Data, want)
		}
	}
}

// TestMatVecShapePanics: a 1-row MulNT whose dst width does not match the
// matrix's rows panics.
func TestMatVecShapePanics(t *testing.T) {
	m := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MulNT(NewDense(1, 3), NewDense(1, 2), m)
}

// TestMatTVecShapePanics: a 1-row MulNN whose dst width does not match the
// matrix's columns panics.
func TestMatTVecShapePanics(t *testing.T) {
	m := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MulNN(NewDense(1, 3), NewDense(1, 2), m)
}

func TestMulTNAccKnown(t *testing.T) {
	// Two rows: dst += [1 2]ᵀ[3 4] + [0 1]ᵀ[5 6].
	dst := NewDense(2, 2)
	a := &Dense{Rows: 2, Cols: 2, Data: []float64{1, 2, 0, 1}}
	b := &Dense{Rows: 2, Cols: 2, Data: []float64{3, 4, 5, 6}}
	MulTNAcc(dst, a, b)
	want := []float64{3, 4, 11, 14}
	for i := range want {
		if dst.Data[i] != want[i] {
			t.Fatalf("MulTNAcc = %v, want %v", dst.Data, want)
		}
	}
	// Accumulation, not overwrite:
	MulTNAcc(dst, &Dense{Rows: 1, Cols: 2, Data: []float64{1, 0}}, &Dense{Rows: 1, Cols: 2, Data: []float64{1, 1}})
	if dst.Data[0] != 4 || dst.Data[1] != 5 || dst.Data[2] != 11 {
		t.Fatalf("MulTNAcc should accumulate: %v", dst.Data)
	}
}

func TestMulTNAccShapePanics(t *testing.T) {
	for i, f := range []func(){
		func() { MulTNAcc(NewDense(2, 2), NewDense(3, 2), NewDense(2, 2)) },
		func() { MulTNAcc(NewDense(3, 2), NewDense(2, 2), NewDense(2, 2)) },
		func() { MulTNAcc(NewDense(2, 3), NewDense(2, 2), NewDense(2, 2)) },
	} {
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

func TestVecHelpers(t *testing.T) {
	a := []float64{1, 2}
	AddVec(a, []float64{3, 4})
	if a[0] != 4 || a[1] != 6 {
		t.Fatalf("AddVec: %v", a)
	}
	AddScaledVec(a, -1, []float64{4, 6})
	if a[0] != 0 || a[1] != 0 {
		t.Fatalf("AddScaledVec: %v", a)
	}
	b := []float64{1, -2, 2}
	ScaleVec(b, 0.5)
	if b[1] != -1 {
		t.Fatalf("ScaleVec: %v", b)
	}
}

func TestVecHelperPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"AddVec":       func() { AddVec([]float64{1}, []float64{1, 2}) },
		"AddScaledVec": func() { AddScaledVec([]float64{1}, 1, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on length mismatch", name)
				}
			}()
			f()
		}()
	}
}

// dot is the test files' inner product.
func dot(a, b []float64) float64 {
	sum := 0.0
	for i, v := range a {
		sum += v * b[i]
	}
	return sum
}

// Property: for random m, x, y it holds that <y, m x> == <mᵀ y, x>
// (adjoint identity), which jointly validates the one-row forms of MulNT
// and MulNN.
func TestAdjointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(8)
		cols := 1 + r.Intn(8)
		m := randDense(r, rows, cols)
		x := randDense(r, 1, cols)
		y := randDense(r, 1, rows)
		mx := NewDense(1, rows)
		mty := NewDense(1, cols)
		MulNT(mx, x, m)
		MulNN(mty, y, m)
		lhs := dot(y.Data, mx.Data)
		rhs := dot(mty.Data, x.Data)
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(lhs))
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: MulTNAcc is the weight gradient of a batch of y_s = W x_s
// contracted against upstream gradients g_s: d(sum_s <g_s, W x_s>)/dW ==
// Gᵀ X. Verify against finite differences on a random entry.
func TestMulTNAccIsGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		rows, cols, batch := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(6)
		w := randDense(rng, rows, cols)
		x := randDense(rng, batch, cols)
		g := randDense(rng, batch, rows)
		grad := NewDense(rows, cols)
		MulTNAcc(grad, g, x)

		r, c := rng.Intn(rows), rng.Intn(cols)
		const h = 1e-6
		eval := func() float64 {
			out := make([]float64, rows)
			sum := 0.0
			for s := 0; s < batch; s++ {
				mulNTRowRef(out, w, x.Row(s))
				sum += dot(g.Row(s), out)
			}
			return sum
		}
		orig := w.At(r, c)
		w.Data[r*w.Cols+c] = orig + h
		fPlus := eval()
		w.Data[r*w.Cols+c] = orig - h
		fMinus := eval()
		w.Data[r*w.Cols+c] = orig
		fd := (fPlus - fMinus) / (2 * h)
		if math.Abs(fd-grad.At(r, c)) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("gradient mismatch at (%d,%d): fd=%v MulTNAcc=%v", r, c, fd, grad.At(r, c))
		}
	}
}
