// Package surrogate implements Phase 1 of Mind Mappings (paper §4.1):
// building a training set by uniformly sampling mappings across the map
// spaces of representative problems, and fitting a differentiable MLP that
// approximates the accelerator cost function f with f*. The trained
// surrogate predicts the paper's rich meta-statistics output representation
// (§4.1.3) and — the crux of Phase 2 — yields gradients of predicted EDP
// with respect to the encoded mapping vector.
package surrogate

import (
	"context"
	"errors"
	"fmt"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/nn"
	"mindmappings/internal/oracle"
	"mindmappings/internal/stats"

	_ "mindmappings/internal/timeloop" // register the timeloop and roofline backends
)

// OutputMode selects the surrogate's output representation.
type OutputMode int

const (
	// OutputMetaStats predicts the full meta-statistics vector (per-level
	// per-tensor energies, total energy, utilization, cycles), the paper's
	// chosen representation (§4.1.3: it yielded a 32.8x lower EDP error
	// than predicting EDP directly).
	OutputMetaStats OutputMode = iota
	// OutputDirectEDP predicts a single normalized-EDP value, the strawman
	// the paper's §4.1.3 ablation compares against.
	OutputDirectEDP
)

// The shape of a tail draw (Config.TailBias): the best of tailCandidates
// uniform mappings is labeled, then tailNeighbors of its perturbation
// neighbors.
const (
	tailCandidates = 8
	tailNeighbors  = 3
)

// Config bundles Phase-1 hyper-parameters.
type Config struct {
	// HiddenSizes are the MLP hidden-layer widths.
	HiddenSizes []int
	// Samples is the number of (mapping, problem, cost) tuples to generate.
	Samples int
	// Problems is how many representative problems to sample map spaces
	// from (§4.1.1: "we generate training points by uniformly sampling
	// from multiple map spaces").
	Problems int
	// TestFrac is the held-out fraction for the Figure-7a test curve.
	TestFrac float64
	// Train carries the supervised-training recipe (§5.5 defaults).
	Train nn.TrainConfig
	// Mode selects the output representation.
	Mode OutputMode
	// LogOutputs applies log1p to cost targets before whitening. The
	// normalized costs span orders of magnitude; compressing them keeps
	// Huber training in its quadratic regime. (Implementation choice on
	// top of the paper's lower-bound normalization; see DESIGN.md §4.)
	LogOutputs bool
	// TailBias is the fraction of training samples drawn from the
	// low-cost tail of the map space instead of uniformly: a tail sample
	// is the best of tailCandidates uniform draws plus tailNeighbors of
	// its perturbation neighbors. With the paper's 10M uniform samples the
	// tail is covered for free; at laptop-scale dataset sizes this
	// enrichment restores the surrogate's resolution near good mappings.
	// The paper explicitly leaves "improved sampling methods" as
	// anticipated future work (§4.1.1); 0 reproduces pure uniform
	// sampling. See DESIGN.md §4.
	TailBias float64
	// CostModel names the costmodel backend that labels the training set
	// (empty = costmodel.DefaultBackend, the reference Timeloop-style
	// model). A surrogate is an approximation of one specific f; training
	// against a different registered backend needs no other change.
	CostModel string
	// Seed drives dataset sampling and weight initialization.
	Seed int64
}

// PaperConfig returns the paper's exact Phase-1 configuration (§5.5):
// 9-layer MLP [64,256,1024,2048,2048,1024,256,64] hidden widths, 10M
// samples, Huber loss, SGD momentum 0.9, LR 1e-2 decayed 0.1x every 25 of
// 100 epochs, batch 128. Training this on a laptop CPU takes a very long
// time; experiments default to SmallConfig.
func PaperConfig() Config {
	return Config{
		HiddenSizes: []int{64, 256, 1024, 2048, 2048, 1024, 256, 64},
		Samples:     10_000_000,
		Problems:    64,
		TestFrac:    0.05,
		Train:       nn.PaperTrainConfig(),
		Mode:        OutputMetaStats,
		LogOutputs:  true,
		Seed:        1,
	}
}

// SmallConfig returns a laptop-scale configuration that preserves the
// paper's training recipe shape while fitting single-core CPU budgets.
func SmallConfig() Config {
	cfg := Config{
		HiddenSizes: []int{64, 128, 128, 64},
		Samples:     20_000,
		Problems:    24,
		TestFrac:    0.1,
		Train:       nn.PaperTrainConfig(),
		Mode:        OutputMetaStats,
		LogOutputs:  true,
		TailBias:    0.5,
		Seed:        1,
	}
	cfg.Train.Epochs = 40
	cfg.Train.LRDecayEvery = 14
	return cfg
}

// TinyConfig returns a configuration small enough for unit tests and
// benchmark setup, still end-to-end faithful.
func TinyConfig() Config {
	cfg := Config{
		HiddenSizes: []int{64, 64},
		Samples:     8000,
		Problems:    12,
		TestFrac:    0.1,
		Train:       nn.PaperTrainConfig(),
		Mode:        OutputMetaStats,
		LogOutputs:  true,
		TailBias:    0.5,
		Seed:        1,
	}
	cfg.Train.Epochs = 24
	cfg.Train.LRDecayEvery = 8
	cfg.Train.LR = 2e-2
	return cfg
}

func (c *Config) validate() error {
	if len(c.HiddenSizes) == 0 {
		return errors.New("surrogate: no hidden layers configured")
	}
	if c.Samples < 10 {
		return fmt.Errorf("surrogate: %d samples is too few", c.Samples)
	}
	if c.Problems < 1 {
		return fmt.Errorf("surrogate: %d problems", c.Problems)
	}
	if c.TestFrac <= 0 || c.TestFrac >= 1 {
		return fmt.Errorf("surrogate: test fraction %v", c.TestFrac)
	}
	if !costmodel.Registered(c.CostModel) {
		return fmt.Errorf("surrogate: unknown cost model %q (registered: %v)", c.CostModel, costmodel.Names())
	}
	return nil
}

// RawDataset is a generated Phase-1 training set before whitening: encoded
// mapping vectors (with problem-id prefix) and lower-bound-normalized cost
// targets.
type RawDataset struct {
	Algo *loopnest.Algorithm
	Arch arch.Spec
	X    [][]float64
	Y    [][]float64
	Mode OutputMode
}

// Len returns the number of samples.
func (d *RawDataset) Len() int { return len(d.X) }

// Subset returns a dataset view containing the first n samples, used by the
// Figure-7c training-set-size sweep.
func (d *RawDataset) Subset(n int) (*RawDataset, error) {
	if n < 1 || n > d.Len() {
		return nil, fmt.Errorf("surrogate: subset %d of %d", n, d.Len())
	}
	return &RawDataset{Algo: d.Algo, Arch: d.Arch, X: d.X[:n], Y: d.Y[:n], Mode: d.Mode}, nil
}

// Generate builds a RawDataset for the algorithm on the accelerator per
// §4.1.1: sample cfg.Problems representative problems, then draw valid
// mappings uniformly from their map spaces, evaluating each with the
// reference cost model and tagging it with its problem id. Targets are
// normalized to the per-problem algorithmic lower bound (§4.1.3) so costs
// of differently-sized problems share a scale.
func Generate(algo *loopnest.Algorithm, a arch.Spec, cfg Config) (*RawDataset, error) {
	return GenerateWith(algo, a, cfg, GenerateOptions{})
}

// GenerateOptions extends Generate for online training pipelines.
type GenerateOptions struct {
	// Ctx cancels generation between samples; the partial dataset is
	// discarded and ctx.Err() returned. Nil means no cancellation.
	Ctx context.Context
	// OnProgress, when set, is called periodically (every few hundred
	// samples and once at completion) with the number of labeled samples
	// so far and the configured total.
	OnProgress func(done, total int)
}

// generateProgressStride is how many samples GenerateWith labels between
// cancellation checks and OnProgress callbacks.
const generateProgressStride = 128

// GenerateWith is Generate with cancellation and progress reporting.
func GenerateWith(algo *loopnest.Algorithm, a arch.Spec, cfg Config, opts GenerateOptions) (*RawDataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if n := algo.NumSampleProblems(); cfg.Problems > n {
		return nil, fmt.Errorf("surrogate: %d problems requested, but %s has only %d distinct sample problems",
			cfg.Problems, algo.Name, n)
	}
	rng := stats.NewRNG(cfg.Seed)
	type problemCtx struct {
		space *mapspace.Space
		model costmodel.Evaluator
		bound oracle.Bound
	}
	var ctxs []problemCtx
	seen := map[string]bool{}
	for len(ctxs) < cfg.Problems {
		p := algo.RandomProblem(rng)
		key := p.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		space, err := mapspace.New(a, p)
		if err != nil {
			return nil, fmt.Errorf("surrogate: map space for %s: %w", key, err)
		}
		model, err := costmodel.New(cfg.CostModel, a, p)
		if err != nil {
			return nil, fmt.Errorf("surrogate: cost model for %s: %w", key, err)
		}
		bound, err := oracle.Compute(a, p)
		if err != nil {
			return nil, fmt.Errorf("surrogate: oracle for %s: %w", key, err)
		}
		ctxs = append(ctxs, problemCtx{space, model, bound})
	}

	// One Cost labels every sample and tail candidate: EvaluateInto
	// overwrites it, and each label copies what it keeps out of it.
	var cost costmodel.Cost
	ds := &RawDataset{Algo: algo, Arch: a, Mode: cfg.Mode}
	add := func(pctx problemCtx, m *mapspace.Mapping) error {
		if err := pctx.model.EvaluateInto(ctx, m, &cost); err != nil {
			return fmt.Errorf("surrogate: evaluating sample %d: %w", ds.Len(), err)
		}
		ds.X = append(ds.X, pctx.space.Encode(m))
		ds.Y = append(ds.Y, normalizeTarget(&cost, pctx.bound, cfg.Mode))
		return nil
	}
	defer func() {
		if opts.OnProgress != nil && ds.Len() == cfg.Samples {
			opts.OnProgress(ds.Len(), cfg.Samples) // the documented completion report
		}
	}()
	lastReport := 0
	for ds.Len() < cfg.Samples {
		if ds.Len()-lastReport >= generateProgressStride {
			lastReport = ds.Len()
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if opts.OnProgress != nil {
				opts.OnProgress(ds.Len(), cfg.Samples)
			}
		}
		pctx := ctxs[rng.Intn(len(ctxs))]
		if cfg.TailBias <= 0 || rng.Float64() >= cfg.TailBias {
			// Uniform draw (§4.1.1).
			m := pctx.space.Random(rng)
			if err := add(pctx, &m); err != nil {
				return nil, err
			}
			continue
		}
		// Tail draw: best of tailCandidates uniform candidates, plus a
		// few of its neighbors so the net learns the local structure
		// around good mappings.
		var best mapspace.Mapping
		bestEDP := -1.0
		for k := 0; k < tailCandidates; k++ {
			m := pctx.space.Random(rng)
			if err := pctx.model.EvaluateInto(ctx, &m, &cost); err != nil {
				return nil, fmt.Errorf("surrogate: tail candidate: %w", err)
			}
			if bestEDP < 0 || cost.EDP < bestEDP {
				best, bestEDP = m, cost.EDP
			}
		}
		if err := add(pctx, &best); err != nil {
			return nil, err
		}
		for n := 0; n < tailNeighbors && ds.Len() < cfg.Samples; n++ {
			nb := pctx.space.Perturb(rng, &best)
			if err := add(pctx, &nb); err != nil {
				return nil, err
			}
		}
	}
	return ds, nil
}

// normalizeTarget converts a cost into the surrogate's target vector in
// lower-bound units: energies divided by the problem's minimum energy,
// cycles by minimum cycles, utilization kept as-is. In these units the
// product of the normalized total energy and normalized cycles is exactly
// the paper's normalized EDP.
func normalizeTarget(c *costmodel.Cost, bound oracle.Bound, mode OutputMode) []float64 {
	if mode == OutputDirectEDP {
		return []float64{bound.NormalizeEDP(c.EDP)}
	}
	meta := c.MetaStats()
	nt := len(c.EnergyPJ[0])
	for i := 0; i < int(arch.NumLevels)*nt; i++ {
		meta[i] /= bound.MinEnergyPJ
	}
	totalIdx, _, cyclesIdx := metaIndices(nt)
	meta[totalIdx] /= bound.MinEnergyPJ
	meta[cyclesIdx] /= bound.MinCycles
	return meta
}

// metaIndices returns the positions of total energy, utilization, and
// cycles within the meta-statistics vector for an algorithm with nt
// tensors.
func metaIndices(nt int) (totalIdx, utilIdx, cyclesIdx int) {
	base := int(arch.NumLevels) * nt
	return base, base + 1, base + 2
}
