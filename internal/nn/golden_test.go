package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// goldenTrainDigests pins Train bit for bit: the sha256 (first 8 bytes,
// hex) of the trained weights and both loss histories for each case of
// goldenTrainCases. The digests were recorded with the per-sample
// minibatch loop (Forward/Backward one row at a time), so they also prove
// that the batched minibatch adds every gradient term in the same order.
var goldenTrainDigests = map[string]string{
	"full":     "ef813d650dc5d321",
	"ragged":   "121d7c36b9893009",
	"batch>n":  "20b26c179312383d",
	"deadrelu": "f379754b6c5b0621",
}

type goldenTrainCase struct {
	name      string
	sizes     []int
	n, batch  int
	loss      Loss
	momentum  float64
	decay     int
	deadUnits bool // bias two hidden units far below zero so they never fire
}

var goldenTrainCases = []goldenTrainCase{
	{name: "full", sizes: []int{5, 12, 8, 3}, n: 64, batch: 16, loss: Huber{Delta: 1}, momentum: 0.9, decay: 2},
	{name: "ragged", sizes: []int{4, 9, 2}, n: 70, batch: 16, loss: MSE{}, momentum: 0.5},
	{name: "batch>n", sizes: []int{3, 7, 7, 1}, n: 20, batch: 32, loss: MAE{}, momentum: 0.9},
	{name: "deadrelu", sizes: []int{6, 10, 7, 2}, n: 50, batch: 8, loss: Huber{Delta: 1}, momentum: 0.9, decay: 3, deadUnits: true},
}

// goldenData draws a nonlinear regression set; every fifth row has a
// zero feature so zero activations reach the weight gradients too.
func goldenData(rng *rand.Rand, n, in, out int) *Dataset {
	ds := &Dataset{}
	for i := 0; i < n; i++ {
		x := make([]float64, in)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		if i%5 == 0 {
			x[i%in] = 0
		}
		y := make([]float64, out)
		for j := range y {
			y[j] = math.Sin(x[j%in]) + x[(j+1)%in]*x[(j+2)%in]
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, y)
	}
	return ds
}

func hashFloats(h interface{ Write([]byte) (int, error) }, vs []float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

func trainDigest(net *MLP, hist *History) string {
	h := sha256.New()
	for _, l := range net.Layers {
		hashFloats(h, l.W.Data)
		hashFloats(h, l.B)
	}
	hashFloats(h, hist.TrainLoss)
	hashFloats(h, hist.TestLoss)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func runGoldenTrain(t *testing.T, c goldenTrainCase) (*MLP, *History) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(c.name))))
	net, err := NewMLP(c.sizes, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.deadUnits {
		net.Layers[0].B[3] = -1e3
		net.Layers[1].B[2] = -1e3
	}
	in, out := c.sizes[0], c.sizes[len(c.sizes)-1]
	train := goldenData(rng, c.n, in, out)
	test := goldenData(rng, 9, in, out)
	hist, err := Train(net, train, test, TrainConfig{
		Epochs:        5,
		BatchSize:     c.batch,
		LR:            0.02,
		Momentum:      c.momentum,
		LRDecayEvery:  c.decay,
		LRDecayFactor: 0.5,
		Loss:          c.loss,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, hist
}

func TestGoldenTrainDigests(t *testing.T) {
	for _, c := range goldenTrainCases {
		net, hist := runGoldenTrain(t, c)
		for _, v := range append(hist.TrainLoss, hist.TestLoss...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: loss history %v is not finite", c.name, hist)
			}
		}
		// A dead unit gets zero deltas, so its bias never moves.
		if c.deadUnits && (net.Layers[0].B[3] != -1e3 || net.Layers[1].B[2] != -1e3) {
			t.Fatalf("%s: dead units fired", c.name)
		}
		got := trainDigest(net, hist)
		if want := goldenTrainDigests[c.name]; got != want {
			t.Errorf("%s: digest %s, pinned %q", c.name, got, want)
		}
	}
}
