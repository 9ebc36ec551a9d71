// Package experiments reproduces every table and figure of the paper's
// evaluation (§5): the cost-surface plot (Figure 3), the Table-1 workloads,
// the §5.1.3 map-space characterization, the iso-iteration and iso-time
// search comparisons (Figures 5 and 6) with their headline summary ratios,
// the surrogate training studies (Figures 7a-7c), the §4.1.3
// output-representation ablation, and the per-step cost measurements.
//
// The same drivers back cmd/experiments and the root-level benchmarks; see
// DESIGN.md §2 for the experiment index and BENCH_search.json for recorded
// results.
package experiments

import (
	"fmt"
	"io"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/core"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/nn"
	"mindmappings/internal/search"
	"mindmappings/internal/surrogate"

	_ "mindmappings/internal/timeloop" // register the reference cost-model backend
	_ "mindmappings/internal/workload" // register the built-in workloads
)

// Options scales the reproduction. The paper's full methodology (100
// averaged runs, 10M-sample surrogates) is out of reach for a single CPU
// core; these options keep the methodology identical while shrinking
// counts, and every field can be raised toward the paper's values.
type Options struct {
	// Fast selects the reduced problem set and budgets used by unit tests
	// and benchmarks.
	Fast bool
	// Repeats is the number of runs averaged per (method, problem); the
	// paper uses 100.
	Repeats int
	// IsoIterations is the evaluation budget for Figure 5.
	IsoIterations int
	// IsoTime is the wall-clock budget for Figure 6.
	IsoTime time.Duration
	// QueryLatency emulates the reference cost model's per-query latency
	// for iso-time runs (Timeloop queries cost milliseconds; see DESIGN.md
	// §4). Iso-iteration runs never pay it.
	QueryLatency time.Duration
	// RLHidden is the DDPG network width (paper: 300; default 64 for
	// single-core tractability).
	RLHidden int
	// CostModel names the registered costmodel backend every experiment
	// evaluates against (empty = the reference "timeloop" backend). The
	// head-to-head study (CostModelHeadToHead) always sweeps all
	// registered backends regardless.
	CostModel string
	// SpaceSamples is the sample count for the §5.1.3 characterization
	// (paper: 1M).
	SpaceSamples int
	// CNNSurrogate and MTTKRPSurrogate configure Phase 1 per algorithm.
	CNNSurrogate    surrogate.Config
	MTTKRPSurrogate surrogate.Config
	// Seed drives all randomness.
	Seed int64
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// Defaults returns full-scale (fast=false) or test-scale (fast=true)
// options.
func Defaults(fast bool) Options {
	if fast {
		cfg := surrogate.TinyConfig()
		mtt := cfg
		return Options{
			Fast:            true,
			Repeats:         1,
			IsoIterations:   400,
			IsoTime:         500 * time.Millisecond,
			QueryLatency:    time.Millisecond,
			RLHidden:        32,
			SpaceSamples:    2000,
			CNNSurrogate:    cfg,
			MTTKRPSurrogate: mtt,
			Seed:            1,
		}
	}
	cnn := surrogate.SmallConfig()
	mtt := surrogate.SmallConfig()
	return Options{
		Repeats:         5,
		IsoIterations:   1000,
		IsoTime:         10 * time.Second,
		QueryLatency:    2 * time.Millisecond,
		RLHidden:        64,
		SpaceSamples:    50_000,
		CNNSurrogate:    cnn,
		MTTKRPSurrogate: mtt,
		Seed:            1,
	}
}

// Harness runs the experiments, caching each algorithm's dataset and its
// trained surrogate with the training history.
type Harness struct {
	opts  Options
	surs  map[string]*surrogate.Surrogate
	hists map[string]*nn.History // the training history of each cached surrogate
	data  map[string]*surrogate.RawDataset
}

// New returns a harness for the given options.
func New(opts Options) *Harness {
	if opts.Repeats < 1 {
		opts.Repeats = 1
	}
	return &Harness{
		opts:  opts,
		surs:  map[string]*surrogate.Surrogate{},
		hists: map[string]*nn.History{},
		data:  map[string]*surrogate.RawDataset{},
	}
}

func (h *Harness) logf(format string, args ...any) {
	if h.opts.Log != nil {
		fmt.Fprintf(h.opts.Log, format, args...)
	}
}

// algoFor returns the algorithm, accelerator, and surrogate config for any
// registered workload name. The accelerator datapath is sized to the
// workload's operand count; the surrogate config follows the per-algorithm
// options for the paper's two headline workloads and CNNSurrogate
// otherwise. The config's CostModel follows Options.CostModel so Phase-1
// surrogates approximate the same f the experiments evaluate against — an
// MM run under -costmodel roofline is guided by a roofline-trained
// surrogate, keeping comparisons apples to apples.
func (h *Harness) algoFor(name string) (*loopnest.Algorithm, arch.Spec, surrogate.Config, error) {
	algo, err := loopnest.AlgorithmByName(name)
	if err != nil {
		return nil, arch.Spec{}, surrogate.Config{}, fmt.Errorf("experiments: %w", err)
	}
	cfg := h.opts.CNNSurrogate
	if name == "mttkrp" {
		cfg = h.opts.MTTKRPSurrogate
	}
	if cfg.CostModel == "" {
		cfg.CostModel = h.opts.CostModel
	}
	return algo, arch.Default(len(algo.Tensors) - 1), cfg, nil
}

// Dataset returns (generating and caching) the Phase-1 raw dataset for an
// algorithm.
func (h *Harness) Dataset(algoName string) (*surrogate.RawDataset, error) {
	if ds, ok := h.data[algoName]; ok {
		return ds, nil
	}
	algo, a, cfg, err := h.algoFor(algoName)
	if err != nil {
		return nil, err
	}
	h.logf("generating %d-sample training set for %s...\n", cfg.Samples, algoName)
	ds, err := surrogate.Generate(algo, a, cfg)
	if err != nil {
		return nil, err
	}
	h.data[algoName] = ds
	return ds, nil
}

// Surrogate returns (training and caching) the Phase-1 surrogate for an
// algorithm: the one model every driver that trains on the algorithm's
// default dataset and config shares.
func (h *Harness) Surrogate(algoName string) (*surrogate.Surrogate, error) {
	if s, ok := h.surs[algoName]; ok {
		return s, nil
	}
	ds, err := h.Dataset(algoName)
	if err != nil {
		return nil, err
	}
	_, _, cfg, err := h.algoFor(algoName)
	if err != nil {
		return nil, err
	}
	h.logf("training %s surrogate (%d epochs)...\n", algoName, cfg.Train.Epochs)
	s, hist, err := surrogate.Train(ds, cfg)
	if err != nil {
		return nil, err
	}
	h.surs[algoName], h.hists[algoName] = s, hist
	return s, nil
}

// Problems returns the Table-1 target problems: all eight at full scale, a
// representative CNN + MTTKRP pair in fast mode.
func (h *Harness) Problems() ([]loopnest.Problem, error) {
	all, err := loopnest.Table1Problems()
	if err != nil {
		return nil, err
	}
	if !h.opts.Fast {
		return all, nil
	}
	var out []loopnest.Problem
	for _, p := range all {
		if p.Name == "ResNet_Conv_4" || p.Name == "MTTKRP_0" {
			out = append(out, p)
		}
	}
	return out, nil
}

// problemFor returns the target problem of the named algorithm: the first
// of Problems that runs it.
func (h *Harness) problemFor(algoName string) (loopnest.Problem, error) {
	problems, err := h.Problems()
	if err != nil {
		return loopnest.Problem{}, err
	}
	for _, p := range problems {
		if p.Algo.Name == algoName {
			return p, nil
		}
	}
	return loopnest.Problem{}, fmt.Errorf("experiments: no %s problem among the targets", algoName)
}

// methods returns the five search methods in paper order (§5.2): the
// baselines plus Mind Mappings wired to the right surrogate per algorithm.
func (h *Harness) methods(algoName string) ([]search.Searcher, error) {
	sur, err := h.Surrogate(algoName)
	if err != nil {
		return nil, err
	}
	return append(core.Baselines(h.opts.RLHidden), search.MindMappings{Surrogate: sur}), nil
}
