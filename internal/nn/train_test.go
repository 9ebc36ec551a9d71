package nn

import (
	"math"
	"math/rand"
	"testing"
)

// makeRegressionData builds a dataset for y = [x0+x1, x0-x1] with mild
// noise, an easy target any working training loop must fit.
func makeRegressionData(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{}
	for i := 0; i < n; i++ {
		x0, x1 := rng.NormFloat64(), rng.NormFloat64()
		ds.X = append(ds.X, []float64{x0, x1})
		ds.Y = append(ds.Y, []float64{x0 + x1, x0 - x1})
	}
	return ds
}

func TestDatasetValidate(t *testing.T) {
	ds := &Dataset{X: [][]float64{{1, 2}}, Y: [][]float64{{1}}}
	if err := ds.Validate(2, 1); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	if err := ds.Validate(3, 1); err == nil {
		t.Fatal("wrong input dim accepted")
	}
	if err := ds.Validate(2, 2); err == nil {
		t.Fatal("wrong output dim accepted")
	}
	if err := (&Dataset{}).Validate(1, 1); err == nil {
		t.Fatal("empty dataset accepted")
	}
	bad := &Dataset{X: [][]float64{{1}}, Y: nil}
	if err := bad.Validate(1, 1); err == nil {
		t.Fatal("mismatched X/Y lengths accepted")
	}
}

func TestDatasetSplit(t *testing.T) {
	ds := makeRegressionData(100, 1)
	rng := rand.New(rand.NewSource(2))
	train, test, err := ds.Split(0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()+test.Len() != 100 {
		t.Fatalf("split sizes %d+%d != 100", train.Len(), test.Len())
	}
	if test.Len() != 20 {
		t.Fatalf("test size = %d, want 20", test.Len())
	}
}

func TestDatasetSplitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	one := &Dataset{X: [][]float64{{1}}, Y: [][]float64{{1}}}
	if _, _, err := one.Split(0.5, rng); err == nil {
		t.Fatal("split of single sample accepted")
	}
	two := makeRegressionData(2, 1)
	if _, _, err := two.Split(0, rng); err == nil {
		t.Fatal("testFrac 0 accepted")
	}
	if _, _, err := two.Split(1, rng); err == nil {
		t.Fatal("testFrac 1 accepted")
	}
}

func TestDatasetSplitMinimumOneEach(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := makeRegressionData(3, 1)
	train, test, err := ds.Split(0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	if test.Len() < 1 || train.Len() < 1 {
		t.Fatalf("split must keep at least one sample each: %d/%d", train.Len(), test.Len())
	}
}

func TestTrainLearnsLinearFunction(t *testing.T) {
	ds := makeRegressionData(256, 3)
	rng := rand.New(rand.NewSource(4))
	train, test, err := ds.Split(0.25, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := newTestNet(t, []int{2, 16, 2}, 5)
	cfg := TrainConfig{
		Epochs:    40,
		BatchSize: 32,
		LR:        0.05,
		Momentum:  0.9,
		Loss:      MSE{},
		Seed:      6,
	}
	hist, err := Train(net, train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.TrainLoss) != cfg.Epochs || len(hist.TestLoss) != cfg.Epochs {
		t.Fatalf("history lengths %d/%d", len(hist.TrainLoss), len(hist.TestLoss))
	}
	if hist.FinalTrain() >= hist.TrainLoss[0] {
		t.Fatalf("training loss did not decrease: %v -> %v", hist.TrainLoss[0], hist.FinalTrain())
	}
	if hist.FinalTest() > 0.05 {
		t.Fatalf("final test loss %v too high for a linear target", hist.FinalTest())
	}
}

func TestTrainValidatesDatasets(t *testing.T) {
	net := newTestNet(t, []int{2, 4, 2}, 5)
	bad := &Dataset{X: [][]float64{{1}}, Y: [][]float64{{1, 2}}}
	if _, err := Train(net, bad, nil, TrainConfig{Epochs: 1}); err == nil {
		t.Fatal("train accepted mis-shaped training set")
	}
	good := makeRegressionData(8, 1)
	badTest := &Dataset{X: [][]float64{{1, 2}}, Y: [][]float64{{1}}}
	if _, err := Train(net, good, badTest, TrainConfig{Epochs: 1}); err == nil {
		t.Fatal("train accepted mis-shaped test set")
	}
}

func TestTrainNilTestSet(t *testing.T) {
	net := newTestNet(t, []int{2, 4, 2}, 5)
	hist, err := Train(net, makeRegressionData(16, 1), nil, TrainConfig{Epochs: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.TestLoss) != 0 {
		t.Fatal("nil test set must record no test loss")
	}
	if len(hist.TrainLoss) != 2 {
		t.Fatalf("expected 2 train-loss entries, got %d", len(hist.TrainLoss))
	}
}

func TestTrainLRDecay(t *testing.T) {
	net := newTestNet(t, []int{2, 4, 2}, 5)
	var lrs []float64
	cfg := TrainConfig{
		Epochs:        5,
		BatchSize:     8,
		LR:            1.0,
		Momentum:      0,
		LRDecayEvery:  2,
		LRDecayFactor: 0.1,
		Loss:          MSE{},
		OnEpoch: func(s EpochStats) error {
			lrs = append(lrs, s.LR)
			return nil
		},
	}
	if _, err := Train(net, makeRegressionData(16, 1), nil, cfg); err != nil {
		t.Fatal(err)
	}
	// Decays at epochs 2 and 4: 1.0 -> 0.1 -> 0.01.
	want := []float64{1, 1, 0.1, 0.1, 0.01}
	if len(lrs) != len(want) {
		t.Fatalf("OnEpoch saw %d epochs, want %d", len(lrs), len(want))
	}
	for i, w := range want {
		if math.Abs(lrs[i]-w) > 1e-12 {
			t.Fatalf("epoch %d LR = %v, want %v (all: %v)", i, lrs[i], w, lrs)
		}
	}
}

func TestTrainDeterministicWithSeed(t *testing.T) {
	run := func() float64 {
		net, err := NewMLP([]int{2, 8, 2}, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		hist, err := Train(net, makeRegressionData(64, 9), nil,
			TrainConfig{Epochs: 5, BatchSize: 16, LR: 0.05, Seed: 10, Loss: MSE{}})
		if err != nil {
			t.Fatal(err)
		}
		return hist.FinalTrain()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("training not deterministic: %v vs %v", a, b)
	}
}

// TestMinibatchStepAllocFree: once its buffers exist, a minibatch step
// (gather, ForwardBatch, loss, BackwardBatch, SGD step) allocates nothing,
// on full batches and on a ragged last batch.
func TestMinibatchStepAllocFree(t *testing.T) {
	net := newTestNet(t, []int{2, 16, 8, 2}, 5)
	ds := makeRegressionData(40, 1)
	mb := newMinibatch(net, 16)
	opt := NewSGD(0.01, 0.9)
	var loss Loss = Huber{Delta: 1}
	rows := rand.New(rand.NewSource(3)).Perm(ds.Len())
	mb.step(ds, rows[:16], loss, opt) // first SGD step allocates its velocity
	for _, n := range []int{16, 5} {
		allocs := testing.AllocsPerRun(20, func() {
			mb.step(ds, rows[:n], loss, opt)
		})
		if allocs != 0 {
			t.Fatalf("%d-row minibatch step allocates %.1f per run, want 0", n, allocs)
		}
	}
}

func TestPaperTrainConfigMatchesPaper(t *testing.T) {
	cfg := PaperTrainConfig()
	if cfg.Epochs != 100 || cfg.BatchSize != 128 || cfg.LR != 1e-2 ||
		cfg.Momentum != 0.9 || cfg.LRDecayEvery != 25 || cfg.LRDecayFactor != 0.1 {
		t.Fatalf("paper config drifted: %+v", cfg)
	}
	if cfg.Loss.Name() != "huber" {
		t.Fatalf("paper loss = %q, want huber", cfg.Loss.Name())
	}
}

func TestEvaluate(t *testing.T) {
	net := newTestNet(t, []int{2, 4, 2}, 5)
	ds := makeRegressionData(10, 1)
	v := Evaluate(net, ds, MSE{})
	if v <= 0 {
		t.Fatalf("untrained eval loss should be positive, got %v", v)
	}
	if Evaluate(net, &Dataset{}, MSE{}) != 0 {
		t.Fatal("empty dataset eval must be 0")
	}
}

func TestSGDStepKnown(t *testing.T) {
	net := newTestNet(t, []int{1, 1}, 1)
	net.Layers[0].W.Data[0] = 2
	net.Layers[0].B[0] = 1
	g := net.NewGrads()
	g.W[0].Data[0] = 0.5
	g.B[0][0] = -0.5
	opt := NewSGD(0.1, 0)
	opt.Step(net, g)
	if math.Abs(net.Layers[0].W.Data[0]-1.95) > 1e-12 {
		t.Fatalf("W after step = %v, want 1.95", net.Layers[0].W.Data[0])
	}
	if math.Abs(net.Layers[0].B[0]-1.05) > 1e-12 {
		t.Fatalf("B after step = %v, want 1.05", net.Layers[0].B[0])
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	net := newTestNet(t, []int{1, 1}, 1)
	net.Layers[0].W.Data[0] = 0
	g := net.NewGrads()
	g.W[0].Data[0] = 1
	opt := NewSGD(1, 0.5)
	opt.Step(net, g) // vel = 1,  W = -1
	opt.Step(net, g) // vel = 1.5, W = -2.5
	if math.Abs(net.Layers[0].W.Data[0]-(-2.5)) > 1e-12 {
		t.Fatalf("W after two momentum steps = %v, want -2.5", net.Layers[0].W.Data[0])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2 via gradient 2(w-3) fed through Adam.
	net := newTestNet(t, []int{1, 1}, 1)
	net.Layers[0].W.Data[0] = 0
	net.Layers[0].B[0] = 0
	g := net.NewGrads()
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		w := net.Layers[0].W.Data[0]
		g.W[0].Data[0] = 2 * (w - 3)
		g.B[0][0] = 0
		opt.Step(net, g)
	}
	if math.Abs(net.Layers[0].W.Data[0]-3) > 1e-2 {
		t.Fatalf("Adam did not converge: w = %v", net.Layers[0].W.Data[0])
	}
}

func TestOptimizerLRAccessors(t *testing.T) {
	s := NewSGD(0.5, 0.9)
	if s.LR() != 0.5 {
		t.Fatal("SGD LR accessor")
	}
	s.SetLR(0.25)
	if s.LR() != 0.25 {
		t.Fatal("SGD SetLR")
	}
}
