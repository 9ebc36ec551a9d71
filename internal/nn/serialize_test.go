package nn

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	net := newTestNet(t, []int{3, 8, 4, 2}, 21)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ws1, ws2 := net.NewWorkspace(), loaded.NewWorkspace()
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		a := net.ForwardBatch(ws1, rowOf(x)).Data
		b := loaded.ForwardBatch(ws2, rowOf(x)).Data
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("prediction mismatch after round trip: %v vs %v", a, b)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("Load accepted garbage")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	net := newTestNet(t, []int{2, 4, 1}, 1)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Load(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("Load accepted truncated stream")
	}
}

func encodeSaved(t *testing.T, s savedMLP) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestLoadRejectsBadMagic(t *testing.T) {
	buf := encodeSaved(t, savedMLP{Magic: "wrong", Version: mlpVersion, Sizes: []int{1, 1},
		Hidden: "relu", Weights: [][]float64{{1}}, Biases: [][]float64{{0}}})
	if _, err := Load(buf); err == nil {
		t.Fatal("Load accepted bad magic")
	}
}

func TestLoadRejectsBadVersion(t *testing.T) {
	buf := encodeSaved(t, savedMLP{Magic: mlpMagic, Version: 99, Sizes: []int{1, 1},
		Hidden: "relu", Weights: [][]float64{{1}}, Biases: [][]float64{{0}}})
	if _, err := Load(buf); err == nil {
		t.Fatal("Load accepted bad version")
	}
}

func TestLoadRejectsBadShapes(t *testing.T) {
	cases := map[string]savedMLP{
		"short sizes": {Magic: mlpMagic, Version: mlpVersion, Sizes: []int{3},
			Hidden: "relu"},
		"unknown activation": {Magic: mlpMagic, Version: mlpVersion, Sizes: []int{1, 1},
			Hidden: "nope", Weights: [][]float64{{1}}, Biases: [][]float64{{0}}},
		"layer count mismatch": {Magic: mlpMagic, Version: mlpVersion, Sizes: []int{1, 2, 1},
			Hidden: "relu", Weights: [][]float64{{1, 1}}, Biases: [][]float64{{0, 0}}},
		"weight size mismatch": {Magic: mlpMagic, Version: mlpVersion, Sizes: []int{2, 1},
			Hidden: "relu", Weights: [][]float64{{1}}, Biases: [][]float64{{0}}},
		"bias size mismatch": {Magic: mlpMagic, Version: mlpVersion, Sizes: []int{1, 2},
			Hidden: "relu", Weights: [][]float64{{1, 1}}, Biases: [][]float64{{0}}},
	}
	for name, s := range cases {
		if _, err := Load(encodeSaved(t, s)); err == nil {
			t.Errorf("%s: Load accepted invalid model", name)
		}
	}
}

// BenchmarkForward62x128 is one surrogate-sized inference, a 1-row batch.
func BenchmarkForward62x128(b *testing.B) {
	// Approximate surrogate inference cost for the CNN input width.
	rng := rand.New(rand.NewSource(1))
	net, err := NewMLP([]int{62, 128, 128, 64, 12}, rng)
	if err != nil {
		b.Fatal(err)
	}
	ws := net.NewWorkspace()
	x := rowOf(make([]float64, 62))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(ws, x)
	}
}

// BenchmarkBackwardInput62x128 is one surrogate-sized input gradient, a
// 1-row forward and backward pass.
func BenchmarkBackwardInput62x128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net, err := NewMLP([]int{62, 128, 128, 64, 12}, rng)
	if err != nil {
		b.Fatal(err)
	}
	ws := net.NewWorkspace()
	x := rowOf(make([]float64, 62))
	dOut := rowOf(make([]float64, 12))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	dOut.Data[9] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(ws, x)
		net.BackwardInputBatch(ws, dOut)
	}
}
