package surrogate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/nn"
	"mindmappings/internal/stats"
)

// Surrogate is a trained differentiable approximation f* of the accelerator
// cost function for one (algorithm, accelerator) pair, reusable across all
// problems of the algorithm (§4.1: "the surrogate is trained once, offline
// per target algorithm").
//
// All prediction and gradient methods are safe for concurrent use: the
// network weights are frozen after training and per-call scratch buffers
// come from an internal pool, so one loaded surrogate can serve many search
// jobs at once.
type Surrogate struct {
	AlgoName string
	// AlgoFP is the workload fingerprint (loopnest.Algorithm.Fingerprint)
	// the surrogate was trained for; loaders refuse algorithms whose
	// fingerprint differs, so a surrogate never drives a search for a
	// workload other than its own. Empty on legacy files.
	AlgoFP     string
	Arch       arch.Spec
	Net        *nn.MLP
	InNorm     *stats.Normalizer
	OutNorm    *stats.Normalizer
	Mode       OutputMode
	LogOutputs bool
	NumTensors int

	batchPool sync.Pool // of *batchScratch for every query
}

// Train fits a surrogate on the raw dataset per the configured recipe and
// returns it with the per-epoch loss history (the Figure-7a data).
func Train(ds *RawDataset, cfg Config) (*Surrogate, *nn.History, error) {
	return TrainWith(ds, cfg, TrainOptions{})
}

// TrainState is a resumable training checkpoint: the network as of the last
// completed epoch together with the whitening transforms and the loss
// history up to that point. Everything else a run needs (the split, the
// schedule, the data order) is re-derived deterministically from the
// dataset and config, so the checkpoint stays small.
type TrainState struct {
	Net     *nn.MLP
	InNorm  *stats.Normalizer
	OutNorm *stats.Normalizer
	Epoch   int // completed epochs
	Hist    nn.History
}

// TrainEpoch is the per-epoch progress report passed to
// TrainOptions.OnEpoch.
type TrainEpoch struct {
	Epoch     int // 0-based epoch just completed
	Epochs    int
	TrainLoss float64
	TestLoss  float64 // NaN when no test split exists
	// State is a checkpoint as of this epoch: the network is a deep copy,
	// so the receiver may retain it across further training.
	State *TrainState
}

// TrainOptions extends Train for online training pipelines: cancellation,
// per-epoch progress/checkpoint callbacks, warm-start transfer from a
// previously trained surrogate, and resumption of an interrupted run.
type TrainOptions struct {
	// Ctx cancels training between mini-batches; the error returned is
	// ctx.Err(). Nil means no cancellation.
	Ctx context.Context
	// OnEpoch, when set, is called after every completed epoch with the
	// losses and a checkpoint-ready snapshot of the run.
	OnEpoch func(TrainEpoch)
	// Warm initializes the run from a parent surrogate of the same
	// workload instead of from random weights: the parent's network is
	// cloned and — so the cloned weights keep meaning — the parent's
	// whitening transforms are reused rather than refit (see DESIGN.md §7).
	// The parent must match the dataset's workload fingerprint, the
	// config's mode/log-compression, and the network topology implied by
	// cfg.HiddenSizes.
	Warm *Surrogate
	// Resume continues an interrupted run from its checkpoint: epochs
	// before State.Epoch are skipped (with the schedule replayed), and the
	// returned history is the splice of the checkpoint's history and the
	// newly executed epochs. Mutually exclusive with Warm — the checkpoint
	// already carries the run's whitening and weights.
	Resume *TrainState
}

// TrainWith is Train with TrainOptions. On cancellation it returns the
// partial history and ctx's error; the caller can checkpoint via OnEpoch
// and continue later with Resume.
func TrainWith(ds *RawDataset, cfg Config, opts TrainOptions) (*Surrogate, *nn.History, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if ds.Len() < 10 {
		return nil, nil, fmt.Errorf("surrogate: dataset of %d samples is too small", ds.Len())
	}
	if ds.Mode != cfg.Mode {
		return nil, nil, fmt.Errorf("surrogate: dataset mode %d != config mode %d", ds.Mode, cfg.Mode)
	}
	if opts.Warm != nil && opts.Resume != nil {
		return nil, nil, errors.New("surrogate: warm-start and resume are mutually exclusive")
	}

	// Whitening (§4.1.2/§4.1.3): inputs and outputs each normalized to mean
	// 0, std 1 over the training set. Outputs optionally log-compressed
	// first. A warm-started or resumed run reuses its parent's/checkpoint's
	// transforms so the inherited weights keep operating in the space they
	// were trained in.
	targets := make([][]float64, ds.Len())
	for i, y := range ds.Y {
		row := append([]float64(nil), y...)
		if cfg.LogOutputs {
			for j, v := range row {
				row[j] = log1pSafe(v)
			}
		}
		targets[i] = row
	}
	var inNorm, outNorm *stats.Normalizer
	switch {
	case opts.Resume != nil:
		inNorm, outNorm = opts.Resume.InNorm, opts.Resume.OutNorm
	case opts.Warm != nil:
		if err := CheckWarmParent(opts.Warm, ds, cfg); err != nil {
			return nil, nil, err
		}
		inNorm, outNorm = opts.Warm.InNorm, opts.Warm.OutNorm
	default:
		var err error
		inNorm, err = stats.FitNormalizer(ds.X)
		if err != nil {
			return nil, nil, fmt.Errorf("surrogate: input normalizer: %w", err)
		}
		outNorm, err = stats.FitNormalizer(targets)
		if err != nil {
			return nil, nil, fmt.Errorf("surrogate: output normalizer: %w", err)
		}
	}
	if inNorm.Dim() != len(ds.X[0]) || outNorm.Dim() != len(targets[0]) {
		return nil, nil, fmt.Errorf("surrogate: inherited normalizer dims %d/%d do not fit dataset dims %d/%d",
			inNorm.Dim(), outNorm.Dim(), len(ds.X[0]), len(targets[0]))
	}

	full := &nn.Dataset{}
	for i := range ds.X {
		full.X = append(full.X, inNorm.Applied(ds.X[i]))
		full.Y = append(full.Y, outNorm.Applied(targets[i]))
	}
	rng := stats.NewRNG(cfg.Seed + 1)
	trainSet, testSet, err := full.Split(cfg.TestFrac, rng)
	if err != nil {
		return nil, nil, fmt.Errorf("surrogate: split: %w", err)
	}

	sizes := append([]int{len(ds.X[0])}, cfg.HiddenSizes...)
	sizes = append(sizes, len(targets[0]))
	var net *nn.MLP
	var prior nn.History
	startEpoch := 0
	switch {
	case opts.Resume != nil:
		net = opts.Resume.Net.Clone()
		startEpoch = opts.Resume.Epoch
		prior = opts.Resume.Hist
	case opts.Warm != nil:
		net = opts.Warm.Net.Clone()
	default:
		net, err = nn.NewMLP(sizes, stats.NewRNG(cfg.Seed+2))
		if err != nil {
			return nil, nil, fmt.Errorf("surrogate: building MLP: %w", err)
		}
	}
	if !slices.Equal(net.Sizes, sizes) {
		return nil, nil, fmt.Errorf("surrogate: inherited network topology %v does not fit configured %v",
			net.Sizes, sizes)
	}

	s := &Surrogate{
		AlgoName:   ds.Algo.Name,
		AlgoFP:     ds.Algo.Fingerprint(),
		Arch:       ds.Arch,
		Net:        net,
		InNorm:     inNorm,
		OutNorm:    outNorm,
		Mode:       cfg.Mode,
		LogOutputs: cfg.LogOutputs,
		NumTensors: numTensorsFor(ds.Algo, cfg.Mode, len(ds.Y[0])),
	}

	trainCfg := cfg.Train
	trainCfg.Seed = cfg.Seed + 3
	trainCfg.Ctx = opts.Ctx
	trainCfg.StartEpoch = startEpoch
	if opts.OnEpoch != nil {
		var sofar nn.History
		trainCfg.OnEpoch = func(es nn.EpochStats) error {
			sofar.TrainLoss = append(sofar.TrainLoss, es.TrainLoss)
			if !math.IsNaN(es.TestLoss) {
				sofar.TestLoss = append(sofar.TestLoss, es.TestLoss)
			}
			opts.OnEpoch(TrainEpoch{
				Epoch:     es.Epoch,
				Epochs:    es.Epochs,
				TrainLoss: es.TrainLoss,
				TestLoss:  es.TestLoss,
				State: &TrainState{
					Net:     net.Clone(),
					InNorm:  inNorm,
					OutNorm: outNorm,
					Epoch:   es.Epoch + 1,
					Hist:    spliceHistory(prior, sofar),
				},
			})
			return nil
		}
	}
	hist, trainErr := nn.Train(net, trainSet, testSet, trainCfg)
	if hist == nil {
		hist = &nn.History{}
	}
	merged := spliceHistory(prior, *hist)
	if trainErr != nil {
		return nil, &merged, fmt.Errorf("surrogate: training: %w", trainErr)
	}
	return s, &merged, nil
}

// spliceHistory concatenates a checkpoint's loss history with the epochs a
// resumed (or fresh) run actually executed.
func spliceHistory(prior, cur nn.History) nn.History {
	return nn.History{
		TrainLoss: append(append([]float64(nil), prior.TrainLoss...), cur.TrainLoss...),
		TestLoss:  append(append([]float64(nil), prior.TestLoss...), cur.TestLoss...),
	}
}

// CheckWarmParent validates a warm-start parent against the dataset and
// config it is about to seed: same workload (by fingerprint when stamped),
// same output representation, and a network whose topology matches the
// dataset's input and output widths and the configured hidden sizes —
// transfer across problem shapes of one algorithm is the paper's
// generalization claim; transfer across workloads is not. TrainWith calls
// it; a caller choosing a parent calls it first to fall back to a cold
// start.
func CheckWarmParent(parent *Surrogate, ds *RawDataset, cfg Config) error {
	if parent.AlgoName != ds.Algo.Name {
		return fmt.Errorf("surrogate: warm-start parent was trained for %q, dataset is %q",
			parent.AlgoName, ds.Algo.Name)
	}
	if parent.AlgoFP != "" && parent.AlgoFP != ds.Algo.Fingerprint() {
		return fmt.Errorf("surrogate: warm-start parent fingerprint %.12s… does not match workload %.12s…",
			parent.AlgoFP, ds.Algo.Fingerprint())
	}
	if parent.Mode != cfg.Mode || parent.LogOutputs != cfg.LogOutputs {
		return errors.New("surrogate: warm-start parent uses a different output representation")
	}
	sizes := append(append([]int{len(ds.X[0])}, cfg.HiddenSizes...), len(ds.Y[0]))
	if !slices.Equal(parent.Net.Sizes, sizes) {
		return fmt.Errorf("surrogate: warm-start parent topology %v does not fit configured %v",
			parent.Net.Sizes, sizes)
	}
	return nil
}

func numTensorsFor(algo *loopnest.Algorithm, mode OutputMode, outLen int) int {
	if algo != nil {
		return len(algo.Tensors)
	}
	if mode == OutputMetaStats {
		return (outLen - 3) / int(arch.NumLevels)
	}
	return 0
}

func log1pSafe(v float64) float64 {
	if v < 0 {
		// Utilization and normalized costs are non-negative by
		// construction; guard against numeric noise.
		v = 0
	}
	return math.Log1p(v)
}

// expm1Safe inverts log1pSafe.
func expm1Safe(v float64) float64 { return math.Expm1(v) }

// clampPos floors a predicted normalized quantity at a small positive
// value so fractional powers and divisions stay finite; predictions below
// the lower bound are surrogate noise anyway.
func clampPos(v float64) float64 {
	if v < 1e-6 {
		return 1e-6
	}
	return v
}

// valueFromZ derives the predicted objective energy^eExp x delay^dExp in
// lower-bound-normalized units from the z-space outputs it depends on
// (the single output in direct-EDP mode, or the total-energy and cycles
// entries of the meta-statistics vector): denormalize, undo the log
// compression, and combine per the exponents (EDP skips the clamp,
// matching the paper path's arithmetic exactly). (1,1) is EDP, (1,2) ED²P,
// (1,0) energy, (0,1) delay (paper §2.3: the cost function is up to the
// designer).
func (s *Surrogate) valueFromZ(eZ, cZ, eExp, dExp float64) float64 {
	if s.Mode == OutputDirectEDP {
		edp := s.OutNorm.InvertOne(0, eZ)
		if s.LogOutputs {
			edp = expm1Safe(edp)
		}
		return edp
	}
	totalIdx, _, cyclesIdx := metaIndices(s.NumTensors)
	e := s.OutNorm.InvertOne(totalIdx, eZ)
	c := s.OutNorm.InvertOne(cyclesIdx, cZ)
	if s.LogOutputs {
		e = expm1Safe(e)
		c = expm1Safe(c)
	}
	if eExp == 1 && dExp == 1 {
		return e * c
	}
	return math.Pow(clampPos(e), eExp) * math.Pow(clampPos(c), dExp)
}

// rowValueAndDOut computes the predicted objective for one query's
// z-space outputs and writes the chain-rule gradient of that objective
// with respect to the network outputs into dOut (length OutDim,
// pre-zeroed). It is the single definition of the value/gradient
// formulas, used by gradientChunk.
func (s *Surrogate) rowValueAndDOut(eZ, cZ, eExp, dExp float64, dOut []float64) float64 {
	if s.Mode == OutputDirectEDP {
		edp := s.OutNorm.InvertOne(0, eZ)
		if s.LogOutputs {
			edp = expm1Safe(edp)
		}
		d := s.OutNorm.Std[0]
		if s.LogOutputs {
			d *= edp + 1 // d expm1(u)/du = exp(u) = value+1
		}
		dOut[0] = d
		return edp
	}
	totalIdx, _, cyclesIdx := metaIndices(s.NumTensors)
	e := s.OutNorm.InvertOne(totalIdx, eZ)
	c := s.OutNorm.InvertOne(cyclesIdx, cZ)
	de := s.OutNorm.Std[totalIdx]
	dc := s.OutNorm.Std[cyclesIdx]
	if eExp == 1 && dExp == 1 {
		if s.LogOutputs {
			eLin, cLin := expm1Safe(e), expm1Safe(c)
			// edp = expm1(e)*expm1(c); d/dz_e = std_e*exp(e)*expm1(c).
			dOut[totalIdx] = de * (eLin + 1) * cLin
			dOut[cyclesIdx] = dc * (cLin + 1) * eLin
			return eLin * cLin
		}
		dOut[totalIdx] = de * c
		dOut[cyclesIdx] = dc * e
		return e * c
	}
	if s.LogOutputs {
		e = expm1Safe(e)
		c = expm1Safe(c)
	}
	eC, dC := clampPos(e), clampPos(c)
	val := math.Pow(eC, eExp) * math.Pow(dC, dExp)
	// dV/de = eExp * e^(eExp-1) * d^dExp, chained through the log and
	// whitening transforms.
	dVdE := eExp * math.Pow(eC, eExp-1) * math.Pow(dC, dExp)
	dVdD := dExp * math.Pow(eC, eExp) * math.Pow(dC, dExp-1)
	dEdz, dDdz := de, dc
	if s.LogOutputs {
		dEdz *= e + 1
		dDdz *= c + 1
	}
	dOut[totalIdx] = dVdE * dEdz
	dOut[cyclesIdx] = dVdD * dDdz
	return val
}

// PredictMetaStats returns the denormalized predicted cost vector in
// lower-bound units (only available in meta-stats mode).
func (s *Surrogate) PredictMetaStats(rawVec []float64) ([]float64, error) {
	if s.Mode != OutputMetaStats {
		return nil, errors.New("surrogate: meta stats unavailable in direct-EDP mode")
	}
	if len(rawVec) != s.Net.InDim() {
		return nil, fmt.Errorf("surrogate: input length %d, want %d", len(rawVec), s.Net.InDim())
	}
	bs := s.getBatchScratch(1)
	defer s.putBatchScratch(bs)
	x := s.whitenChunk(bs, [][]float64{rawVec}, 0, 1)
	out := s.Net.ForwardBatch(bs.ws, &x)
	meta := make([]float64, out.Cols)
	for i, z := range out.Data {
		v := s.OutNorm.InvertOne(i, z)
		if s.LogOutputs {
			v = expm1Safe(v)
		}
		meta[i] = v
	}
	return meta, nil
}

// EvaluateQuality computes the mean absolute error of predicted vs. true
// normalized EDP over a raw dataset slice, plus the Pearson correlation of
// their logs — the acceptance metric integration tests and the Figure-7
// experiments use.
func (s *Surrogate) EvaluateQuality(ds *RawDataset, maxSamples int) (mae, corr float64, err error) {
	n := ds.Len()
	if maxSamples > 0 && n > maxSamples {
		n = maxSamples
	}
	if n == 0 {
		return 0, 0, errors.New("surrogate: empty dataset")
	}
	pred, err := s.PredictBatch(ds.X[:n], 1, 1, nil)
	if err != nil {
		return 0, 0, err
	}
	truth := make([]float64, n)
	for i, p := range pred {
		t := trueEDPFromTarget(ds.Y[i], ds.Mode, s.NumTensors)
		pred[i] = math.Log1p(math.Max(0, p))
		truth[i] = math.Log1p(math.Max(0, t))
		mae += math.Abs(p - t)
	}
	mae /= float64(n)
	corr = pearson(pred, truth)
	return mae, corr, nil
}

// trueEDPFromTarget recovers normalized EDP from a stored target vector.
func trueEDPFromTarget(y []float64, mode OutputMode, nt int) float64 {
	if mode == OutputDirectEDP {
		return y[0]
	}
	totalIdx, _, cyclesIdx := metaIndices(nt)
	return y[totalIdx] * y[cyclesIdx]
}

func pearson(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	ma, mb := stats.Mean(a), stats.Mean(b)
	var num, da, db float64
	for i := range a {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}
