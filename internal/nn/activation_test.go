package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestActivationByName pins the saved format's activation name: Save
// writes "relu", and Load accepts only that name. The names the format
// once also carried (leakyrelu, tanh, sigmoid, identity) and unknown ones
// are load errors, so a net is never run with the wrong nonlinearity.
func TestActivationByName(t *testing.T) {
	net := newTestNet(t, []int{1, 1}, 1)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var saved savedMLP
	if err := gob.NewDecoder(&buf).Decode(&saved); err != nil {
		t.Fatal(err)
	}
	if saved.Hidden != "relu" {
		t.Fatalf("Save wrote hidden activation %q, want relu", saved.Hidden)
	}
	for _, name := range []string{"relu", "leakyrelu", "tanh", "sigmoid", "identity", "swish", ""} {
		saved.Hidden = name
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(&saved); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if name == "relu" {
			if err != nil {
				t.Fatalf("Load(relu): %v", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "hidden activation") {
			t.Fatalf("Load(%q) = %v, want a hidden-activation error", name, err)
		}
	}
}

func TestReLUForward(t *testing.T) {
	x := []float64{-2, 0, 3}
	dst := make([]float64, 3)
	relu(dst, x)
	want := []float64{0, 0, 3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("ReLU(%v) = %v, want %v", x, dst, want)
		}
	}
}

// TestReLUEdgeValues pins the bit-level test relu and reluDeriv use
// against x > 0 on the values where a bit trick could go wrong: both
// zeros, the smallest subnormals, the largest finite values, both
// infinities and NaNs of either sign.
func TestReLUEdgeValues(t *testing.T) {
	x := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1, -1,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Copysign(math.NaN(), -1), math.Float64frombits(0x7FF0000000000001)}
	got, gotD := make([]float64, len(x)), make([]float64, len(x))
	relu(got, x)
	reluDeriv(gotD, x)
	for i, v := range x {
		want, wantD := 0.0, 0.0
		if v > 0 {
			want, wantD = v, 1
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) || math.Float64bits(gotD[i]) != math.Float64bits(wantD) {
			t.Errorf("x=%v (%#x): relu %v deriv %v, want %v and %v", v, math.Float64bits(v), got[i], gotD[i], want, wantD)
		}
	}
}

// ReLU's derivative must match a central finite difference of its
// forward pass, away from the kink at 0.
func TestActivationDerivMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const h = 1e-6
	for trial := 0; trial < 50; trial++ {
		x := rng.NormFloat64() * 2
		if math.Abs(x) < 1e-3 {
			x = 0.5 // avoid the kink
		}
		in := []float64{x}
		d := []float64{0}
		reluDeriv(d, in)

		plus, minus := []float64{0}, []float64{0}
		relu(plus, []float64{x + h})
		relu(minus, []float64{x - h})
		fd := (plus[0] - minus[0]) / (2 * h)
		if math.Abs(fd-d[0]) > 1e-4 {
			t.Fatalf("deriv mismatch at x=%v: fd=%v analytic=%v", x, fd, d[0])
		}
	}
}

// TestActivationForwardInPlace pins that ReLU's forward pass and its
// derivative may write over their input, as the layers rely on.
func TestActivationForwardInPlace(t *testing.T) {
	x := []float64{-1, 0.5, 0, math.Copysign(0, -1), 2}
	want := make([]float64, len(x))
	relu(want, x)
	got := append([]float64(nil), x...)
	relu(got, got)
	wantD := make([]float64, len(x))
	reluDeriv(wantD, x)
	gotD := append([]float64(nil), x...)
	reluDeriv(gotD, gotD)
	for i := range x {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("in-place forward differs: %v vs %v", got, want)
		}
		if gotD[i] != wantD[i] {
			t.Fatalf("in-place derivative differs: %v vs %v", gotD, wantD)
		}
	}
}
