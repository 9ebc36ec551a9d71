package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMSEKnown(t *testing.T) {
	grad := make([]float64, 2)
	loss := MSE{}.Eval([]float64{1, 3}, []float64{0, 1}, grad)
	// ((1)^2 + (2)^2)/2 = 2.5
	if loss != 2.5 {
		t.Fatalf("MSE = %v, want 2.5", loss)
	}
	if grad[0] != 1 || grad[1] != 2 {
		t.Fatalf("MSE grad = %v, want [1 2]", grad)
	}
	if n := (MSE{}).Name(); n != "mse" {
		t.Fatalf("MSE name %q", n)
	}
}

func TestMAEKnown(t *testing.T) {
	grad := make([]float64, 2)
	loss := MAE{}.Eval([]float64{1, -1}, []float64{0, 1}, grad)
	// (1 + 2)/2 = 1.5
	if loss != 1.5 {
		t.Fatalf("MAE = %v, want 1.5", loss)
	}
	if grad[0] != 0.5 || grad[1] != -0.5 {
		t.Fatalf("MAE grad = %v", grad)
	}
	if n := (MAE{}).Name(); n != "mae" {
		t.Fatalf("MAE name %q", n)
	}
}

func TestMAEZeroResidual(t *testing.T) {
	grad := make([]float64, 1)
	loss := MAE{}.Eval([]float64{2}, []float64{2}, grad)
	if loss != 0 || grad[0] != 0 {
		t.Fatalf("MAE at zero residual: loss=%v grad=%v", loss, grad)
	}
}

func TestHuberQuadraticRegion(t *testing.T) {
	grad := make([]float64, 1)
	loss := Huber{Delta: 1}.Eval([]float64{0.5}, []float64{0}, grad)
	if math.Abs(loss-0.125) > 1e-12 {
		t.Fatalf("Huber quadratic = %v, want 0.125", loss)
	}
	if math.Abs(grad[0]-0.5) > 1e-12 {
		t.Fatalf("Huber grad = %v, want 0.5", grad[0])
	}
}

func TestHuberLinearRegion(t *testing.T) {
	grad := make([]float64, 1)
	loss := Huber{Delta: 1}.Eval([]float64{3}, []float64{0}, grad)
	// delta*(|d| - delta/2) = 1*(3-0.5) = 2.5
	if math.Abs(loss-2.5) > 1e-12 {
		t.Fatalf("Huber linear = %v, want 2.5", loss)
	}
	if grad[0] != 1 {
		t.Fatalf("Huber grad = %v, want 1", grad[0])
	}
	if n := (Huber{Delta: 1}).Name(); n != "huber" {
		t.Fatalf("Huber name %q", n)
	}
}

func TestHuberDefaultDelta(t *testing.T) {
	grad := make([]float64, 1)
	// Delta <= 0 must behave as Delta = 1.
	a := Huber{Delta: 0}.Eval([]float64{3}, []float64{0}, grad)
	b := Huber{Delta: 1}.Eval([]float64{3}, []float64{0}, grad)
	if a != b {
		t.Fatalf("default delta mismatch: %v vs %v", a, b)
	}
}

func TestHuberContinuousAtDelta(t *testing.T) {
	grad := make([]float64, 1)
	const eps = 1e-9
	lo := Huber{Delta: 2}.Eval([]float64{2 - eps}, []float64{0}, grad)
	hi := Huber{Delta: 2}.Eval([]float64{2 + eps}, []float64{0}, grad)
	if math.Abs(lo-hi) > 1e-6 {
		t.Fatalf("Huber discontinuous at delta: %v vs %v", lo, hi)
	}
}

func TestLossShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MSE{}.Eval([]float64{1}, []float64{1, 2}, []float64{0})
}

func TestLossEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty vectors")
		}
	}()
	MSE{}.Eval(nil, nil, nil)
}

// Property: each loss gradient matches central finite differences at
// random points (away from kinks for MAE/Huber).
func TestLossGradientProperty(t *testing.T) {
	losses := []Loss{MSE{}, MAE{}, Huber{Delta: 1}, Huber{Delta: 0.3}}
	rng := rand.New(rand.NewSource(17))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		pred := make([]float64, n)
		target := make([]float64, n)
		for i := range pred {
			pred[i] = r.NormFloat64() * 3
			target[i] = r.NormFloat64() * 3
			// Keep away from the kink points of MAE (0) and Huber (±delta).
			for math.Abs(pred[i]-target[i]) < 1e-2 ||
				math.Abs(math.Abs(pred[i]-target[i])-1) < 1e-2 ||
				math.Abs(math.Abs(pred[i]-target[i])-0.3) < 1e-2 {
				pred[i] += 0.05
			}
		}
		grad := make([]float64, n)
		gradFD := make([]float64, n)
		tmp := make([]float64, n)
		const h = 1e-6
		for _, l := range losses {
			l.Eval(pred, target, grad)
			for i := range pred {
				orig := pred[i]
				pred[i] = orig + h
				fp := l.Eval(pred, target, tmp)
				pred[i] = orig - h
				fm := l.Eval(pred, target, tmp)
				pred[i] = orig
				gradFD[i] = (fp - fm) / (2 * h)
			}
			for i := range grad {
				if math.Abs(grad[i]-gradFD[i]) > 1e-4*(1+math.Abs(gradFD[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: all losses are non-negative and zero iff pred == target.
func TestLossNonNegativeProperty(t *testing.T) {
	losses := []Loss{MSE{}, MAE{}, Huber{Delta: 1}}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			a = 1
		}
		if math.IsNaN(b) || math.IsInf(b, 0) {
			b = 2
		}
		grad := make([]float64, 1)
		for _, l := range losses {
			v := l.Eval([]float64{a}, []float64{b}, grad)
			if v < 0 {
				return false
			}
			z := l.Eval([]float64{a}, []float64{a}, grad)
			if z != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
