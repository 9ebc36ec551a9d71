package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

// twoPassStd is the population standard deviation by the two-pass
// formula, the reference the running moments are checked against.
func twoPassStd(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss / float64(len(xs)))
}

func running(xs ...float64) *Running {
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	return &r
}

func TestStdBasic(t *testing.T) {
	got := running(2, 4, 4, 4, 5, 5, 7, 9).Std()
	if !almostEqual(got, 2, 1e-12) {
		t.Fatalf("Std = %v, want 2", got)
	}
}

func TestStdDegenerate(t *testing.T) {
	if got := running(5).Std(); got != 0 {
		t.Fatalf("Std of one sample = %v, want 0", got)
	}
}

func TestGeoMean(t *testing.T) {
	got, err := GeoMean([]float64{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 4, 1e-12) {
		t.Fatalf("GeoMean = %v, want 4", got)
	}
}

func TestGeoMeanRejectsNonPositive(t *testing.T) {
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Fatal("GeoMean accepted zero value")
	}
	if _, err := GeoMean(nil); err == nil {
		t.Fatal("GeoMean accepted empty slice")
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	xs := []float64{4, 8, 15, 16, 23, 42}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	if r.N() != len(xs) {
		t.Fatalf("N = %d, want %d", r.N(), len(xs))
	}
	if !almostEqual(r.Mean(), Mean(xs), 1e-9) {
		t.Errorf("running mean %v != batch mean %v", r.Mean(), Mean(xs))
	}
	if !almostEqual(r.Std(), twoPassStd(xs), 1e-9) {
		t.Errorf("running std %v != batch std %v", r.Std(), twoPassStd(xs))
	}
}

func TestRunningZeroValue(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Std() != 0 || r.N() != 0 {
		t.Fatal("zero-value Running must report zeros")
	}
}

// Property: Welford running moments agree with the two-pass formulas for any
// input vector.
func TestRunningProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e8 {
				continue
			}
			clean = append(clean, x)
		}
		var r Running
		for _, x := range clean {
			r.Add(x)
		}
		scale := 1 + math.Abs(Mean(clean))
		return almostEqual(r.Mean(), Mean(clean), 1e-6*scale) &&
			almostEqual(r.Std(), twoPassStd(clean), 1e-5*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFitNormalizer(t *testing.T) {
	rows := [][]float64{
		{1, 10},
		{2, 20},
		{3, 30},
	}
	n, err := FitNormalizer(rows)
	if err != nil {
		t.Fatal(err)
	}
	if n.Dim() != 2 {
		t.Fatalf("Dim = %d, want 2", n.Dim())
	}
	if !almostEqual(n.Mean[0], 2, 1e-12) || !almostEqual(n.Mean[1], 20, 1e-12) {
		t.Fatalf("means = %v", n.Mean)
	}
	// After applying, columns should be zero-mean unit-std.
	var c0, c1 Running
	for _, row := range rows {
		z := n.Applied(row)
		c0.Add(z[0])
		c1.Add(z[1])
	}
	if !almostEqual(c0.Mean(), 0, 1e-9) || !almostEqual(c1.Mean(), 0, 1e-9) {
		t.Fatalf("normalized means not ~0: %v %v", c0.Mean(), c1.Mean())
	}
	if !almostEqual(c0.Std(), 1, 1e-9) || !almostEqual(c1.Std(), 1, 1e-9) {
		t.Fatalf("normalized stds not ~1: %v %v", c0.Std(), c1.Std())
	}
}

func TestFitNormalizerConstantColumn(t *testing.T) {
	rows := [][]float64{{5, 1}, {5, 2}}
	n, err := FitNormalizer(rows)
	if err != nil {
		t.Fatal(err)
	}
	if n.Std[0] != 1 {
		t.Fatalf("constant column std = %v, want fallback 1", n.Std[0])
	}
	z := n.Applied([]float64{5, 1.5})
	if z[0] != 0 {
		t.Fatalf("constant column should normalize to 0, got %v", z[0])
	}
}

func TestFitNormalizerErrors(t *testing.T) {
	if _, err := FitNormalizer(nil); err == nil {
		t.Fatal("FitNormalizer accepted empty dataset")
	}
	if _, err := FitNormalizer([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("FitNormalizer accepted ragged dataset")
	}
}

// Property: InvertOne undoes Apply, column by column, for arbitrary vectors
// under any fitted normalizer.
func TestNormalizerRoundTripProperty(t *testing.T) {
	rows := [][]float64{
		{1, -3, 100},
		{2, 5, 200},
		{9, 0, -50},
		{4, 2, 0},
	}
	n, err := FitNormalizer(rows)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e8 {
			a = 1
		}
		if math.IsNaN(b) || math.IsInf(b, 0) || math.Abs(b) > 1e8 {
			b = 2
		}
		if math.IsNaN(c) || math.IsInf(c, 0) || math.Abs(c) > 1e8 {
			c = 3
		}
		orig := []float64{a, b, c}
		z := n.Applied(orig)
		for i := range orig {
			if !almostEqual(orig[i], n.InvertOne(i, z[i]), 1e-6*(1+math.Abs(orig[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyOneInvertOne(t *testing.T) {
	n := &Normalizer{Mean: []float64{10, 0}, Std: []float64{2, 1}}
	z := n.Applied([]float64{14, 0})[0]
	if z != 2 {
		t.Fatalf("Applied = %v, want 2", z)
	}
	if back := n.InvertOne(0, z); back != 14 {
		t.Fatalf("InvertOne = %v, want 14", back)
	}
}

func TestNewRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical streams")
	}
}
