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
	m.Set(1, 0, 7)
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
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 5)
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

func TestMatVecKnown(t *testing.T) {
	m := NewDense(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	dst := make([]float64, 2)
	MatVec(dst, m, x)
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("MatVec = %v, want [-2 -2]", dst)
	}
}

func TestMatTVecKnown(t *testing.T) {
	m := NewDense(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	y := []float64{1, -1}
	dst := make([]float64, 3)
	MatTVec(dst, m, y)
	want := []float64{-3, -3, -3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MatTVec = %v, want %v", dst, want)
		}
	}
}

func TestMatVecShapePanics(t *testing.T) {
	m := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatVec(make([]float64, 3), m, make([]float64, 2))
}

func TestMatTVecShapePanics(t *testing.T) {
	m := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatTVec(make([]float64, 3), m, make([]float64, 2))
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
	if d := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); d != 32 {
		t.Fatalf("Dot = %v", d)
	}
	if n := Norm2([]float64{3, 4}); n != 5 {
		t.Fatalf("Norm2 = %v", n)
	}
}

func TestVecHelperPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"AddVec":       func() { AddVec([]float64{1}, []float64{1, 2}) },
		"AddScaledVec": func() { AddScaledVec([]float64{1}, 1, []float64{1, 2}) },
		"Dot":          func() { Dot([]float64{1}, []float64{1, 2}) },
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

// Property: for random m, x, y it holds that <y, m x> == <mᵀ y, x>
// (adjoint identity), which jointly validates MatVec and MatTVec.
func TestAdjointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(8)
		cols := 1 + r.Intn(8)
		m := NewDense(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		x := make([]float64, cols)
		y := make([]float64, rows)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range y {
			y[i] = r.NormFloat64()
		}
		mx := make([]float64, rows)
		mty := make([]float64, cols)
		MatVec(mx, m, x)
		MatTVec(mty, m, y)
		lhs := Dot(y, mx)
		rhs := Dot(mty, x)
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
				MatVec(out, w, x.Row(s))
				sum += Dot(g.Row(s), out)
			}
			return sum
		}
		orig := w.At(r, c)
		w.Set(r, c, orig+h)
		fPlus := eval()
		w.Set(r, c, orig-h)
		fMinus := eval()
		w.Set(r, c, orig)
		fd := (fPlus - fMinus) / (2 * h)
		if math.Abs(fd-grad.At(r, c)) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("gradient mismatch at (%d,%d): fd=%v MulTNAcc=%v", r, c, fd, grad.At(r, c))
		}
	}
}

func BenchmarkMatVec256(b *testing.B) {
	m := NewDense(256, 256)
	x := make([]float64, 256)
	dst := make([]float64, 256)
	for i := range m.Data {
		m.Data[i] = float64(i%13) * 0.1
	}
	for i := range x {
		x[i] = float64(i%7) * 0.2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVec(dst, m, x)
	}
}
