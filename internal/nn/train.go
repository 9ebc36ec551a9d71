package nn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mindmappings/internal/mat"
)

// Dataset is a supervised regression dataset: row i maps X[i] to Y[i].
type Dataset struct {
	X [][]float64
	Y [][]float64
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Validate checks that the dataset is rectangular and consistent with the
// given input/output dimensions.
func (d *Dataset) Validate(inDim, outDim int) error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("nn: dataset has %d inputs but %d targets", len(d.X), len(d.Y))
	}
	if len(d.X) == 0 {
		return errors.New("nn: empty dataset")
	}
	for i := range d.X {
		if len(d.X[i]) != inDim {
			return fmt.Errorf("nn: sample %d input width %d, want %d", i, len(d.X[i]), inDim)
		}
		if len(d.Y[i]) != outDim {
			return fmt.Errorf("nn: sample %d target width %d, want %d", i, len(d.Y[i]), outDim)
		}
	}
	return nil
}

// Split partitions the dataset into train and test halves with testFrac of
// the samples (at least one, at most n-1) going to test, shuffled by rng.
func (d *Dataset) Split(testFrac float64, rng *rand.Rand) (train, test *Dataset, err error) {
	n := d.Len()
	if n < 2 {
		return nil, nil, errors.New("nn: need >= 2 samples to split")
	}
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("nn: testFrac %v out of (0,1)", testFrac)
	}
	nTest := int(float64(n) * testFrac)
	if nTest < 1 {
		nTest = 1
	}
	if nTest > n-1 {
		nTest = n - 1
	}
	perm := rng.Perm(n)
	train = &Dataset{}
	test = &Dataset{}
	for i, p := range perm {
		if i < nTest {
			test.X = append(test.X, d.X[p])
			test.Y = append(test.Y, d.Y[p])
		} else {
			train.X = append(train.X, d.X[p])
			train.Y = append(train.Y, d.Y[p])
		}
	}
	return train, test, nil
}

// TrainConfig bundles the hyper-parameters for supervised training. The
// defaults mirror the paper's recipe (§5.5): SGD with momentum 0.9, learning
// rate 1e-2 decayed by 0.1 every 25 epochs, batch size 128, Huber loss, 100
// epochs.
type TrainConfig struct {
	Epochs        int
	BatchSize     int
	LR            float64
	Momentum      float64
	LRDecayEvery  int     // epochs between decays; 0 disables decay
	LRDecayFactor float64 // multiplier applied at each decay
	Loss          Loss
	Seed          int64
	// Ctx, when non-nil, is checked between mini-batches: once it is done,
	// Train stops and returns ctx.Err() along with the history recorded so
	// far, so a cancelled run still reports its completed epochs.
	Ctx context.Context
	// StartEpoch resumes an interrupted run at this epoch: the schedule
	// (learning-rate decays and the per-epoch shuffle stream) is replayed
	// for the skipped epochs so a resumed run visits the remaining data in
	// the exact order the uninterrupted run would have. The returned
	// history covers only the epochs actually executed; callers splice it
	// onto the prior run's history. Optimizer state (momentum velocity) is
	// not part of the checkpoint and restarts at zero.
	StartEpoch int
	// OnEpoch, when set, is called after each completed epoch. Returning a
	// non-nil error stops training and surfaces that error with the partial
	// history — the hook for progress reporting and checkpointing in
	// long-running training services.
	OnEpoch func(EpochStats) error
}

// EpochStats is the per-epoch progress report passed to TrainConfig.OnEpoch.
type EpochStats struct {
	Epoch     int // 0-based absolute epoch index just completed
	Epochs    int // total epochs configured
	LR        float64
	TrainLoss float64
	TestLoss  float64 // NaN when no test set was provided
}

// PaperTrainConfig returns the exact training hyper-parameters reported in
// the paper (§5.5).
func PaperTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:        100,
		BatchSize:     128,
		LR:            1e-2,
		Momentum:      0.9,
		LRDecayEvery:  25,
		LRDecayFactor: 0.1,
		Loss:          Huber{Delta: 1},
		Seed:          1,
	}
}

func (c *TrainConfig) fillDefaults() {
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 128
	}
	if c.LR <= 0 {
		c.LR = 1e-2
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		c.Momentum = 0.9
	}
	if c.LRDecayFactor <= 0 || c.LRDecayFactor > 1 {
		c.LRDecayFactor = 0.1
	}
	if c.Loss == nil {
		c.Loss = Huber{Delta: 1}
	}
}

// History records per-epoch train and test losses, the data behind the
// paper's Figure 7a.
type History struct {
	TrainLoss []float64
	TestLoss  []float64
}

// FinalTrain returns the last recorded training loss.
func (h *History) FinalTrain() float64 {
	if len(h.TrainLoss) == 0 {
		return 0
	}
	return h.TrainLoss[len(h.TrainLoss)-1]
}

// FinalTest returns the last recorded test loss.
func (h *History) FinalTest() float64 {
	if len(h.TestLoss) == 0 {
		return 0
	}
	return h.TestLoss[len(h.TestLoss)-1]
}

// Train fits net on train with mini-batch gradient descent, evaluating loss
// on test after each epoch. test may be nil, in which case only training
// loss is recorded. On cancellation (cfg.Ctx) or an OnEpoch abort the
// partial history is returned alongside the error.
func Train(net *MLP, train, test *Dataset, cfg TrainConfig) (*History, error) {
	cfg.fillDefaults()
	if err := train.Validate(net.InDim(), net.OutDim()); err != nil {
		return nil, fmt.Errorf("nn: train set: %w", err)
	}
	if test != nil {
		if err := test.Validate(net.InDim(), net.OutDim()); err != nil {
			return nil, fmt.Errorf("nn: test set: %w", err)
		}
	}
	if cfg.StartEpoch < 0 || cfg.StartEpoch > cfg.Epochs {
		return nil, fmt.Errorf("nn: start epoch %d out of [0,%d]", cfg.StartEpoch, cfg.Epochs)
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := NewSGD(cfg.LR, cfg.Momentum)
	n := train.Len()
	mb := newMinibatch(net, min(cfg.BatchSize, n))
	hist := &History{}

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}

	// Replay the schedule for epochs a resumed run skips: the LR decays
	// land where they would have, and burning the shuffles keeps the data
	// order of the remaining epochs identical to an uninterrupted run.
	for epoch := 0; epoch < cfg.StartEpoch; epoch++ {
		if cfg.LRDecayEvery > 0 && epoch > 0 && epoch%cfg.LRDecayEvery == 0 {
			opt.SetLR(opt.LR() * cfg.LRDecayFactor)
		}
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}

	for epoch := cfg.StartEpoch; epoch < cfg.Epochs; epoch++ {
		if cfg.LRDecayEvery > 0 && epoch > 0 && epoch%cfg.LRDecayEvery == 0 {
			opt.SetLR(opt.LR() * cfg.LRDecayFactor)
		}
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })

		epochLoss := 0.0
		for start := 0; start < n; start += cfg.BatchSize {
			if err := ctx.Err(); err != nil {
				return hist, err
			}
			end := min(start+cfg.BatchSize, n)
			epochLoss += mb.step(train, idx[start:end], cfg.Loss, opt)
		}
		hist.TrainLoss = append(hist.TrainLoss, epochLoss/float64(n))
		testLoss := math.NaN()
		if test != nil {
			testLoss = Evaluate(net, test, cfg.Loss)
			hist.TestLoss = append(hist.TestLoss, testLoss)
		}
		if cfg.OnEpoch != nil {
			stats := EpochStats{
				Epoch:     epoch,
				Epochs:    cfg.Epochs,
				LR:        opt.LR(),
				TrainLoss: hist.FinalTrain(),
				TestLoss:  testLoss,
			}
			if err := cfg.OnEpoch(stats); err != nil {
				return hist, err
			}
		}
	}
	return hist, nil
}

// minibatch holds the buffers one SGD step reuses across a run: the
// gathered input rows, the loss gradients, the parameter gradients and the
// network's batch workspace.
type minibatch struct {
	net     *MLP
	ws      *Workspace
	grads   *Grads
	x, dOut *mat.Dense // rows x InDim, rows x OutDim
}

func newMinibatch(net *MLP, rows int) *minibatch {
	return &minibatch{
		net:   net,
		ws:    net.NewWorkspace(),
		grads: net.NewGrads(),
		x:     mat.NewDense(rows, net.InDim()),
		dOut:  mat.NewDense(rows, net.OutDim()),
	}
}

// step takes one SGD step on the samples ds[rows...] as one batch and
// returns their summed loss, added in row order. The gradient is the mean
// over the rows.
func (mb *minibatch) step(ds *Dataset, rows []int, loss Loss, opt *SGD) float64 {
	x := view(mb.x, len(rows))
	for k, s := range rows {
		copy(x.Row(k), ds.X[s])
	}
	out := mb.net.ForwardBatch(mb.ws, &x)
	dOut := view(mb.dOut, len(rows))
	sum := 0.0
	for k, s := range rows {
		sum += loss.Eval(out.Row(k), ds.Y[s], dOut.Row(k))
	}
	mb.grads.Zero()
	mb.net.BackwardBatch(mb.ws, &dOut, mb.grads)
	mb.grads.Scale(1 / float64(len(rows)))
	opt.Step(mb.net, mb.grads)
	return sum
}

// evalChunk is how many rows Evaluate runs through the net at once.
const evalChunk = 128

// Evaluate returns the mean loss of net over ds under criterion loss.
func Evaluate(net *MLP, ds *Dataset, loss Loss) float64 {
	n := ds.Len()
	if n == 0 {
		return 0
	}
	ws := net.NewWorkspace()
	x := mat.NewDense(min(evalChunk, n), net.InDim())
	grad := make([]float64, net.OutDim())
	total := 0.0
	for start := 0; start < n; start += evalChunk {
		xs := view(x, min(evalChunk, n-start))
		for k := range xs.Rows {
			copy(xs.Row(k), ds.X[start+k])
		}
		out := net.ForwardBatch(ws, &xs)
		for k := range xs.Rows {
			total += loss.Eval(out.Row(k), ds.Y[start+k], grad)
		}
	}
	return total / float64(n)
}
