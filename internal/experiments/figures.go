package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/nn"
	"mindmappings/internal/search"
	"mindmappings/internal/stats"
	"mindmappings/internal/surrogate"
)

// SurfaceStats summarizes the Figure-3 cost surface.
type SurfaceStats struct {
	// Points is the number of grid points evaluated.
	Points int
	// MinEDP and MaxEDP are the normalized-EDP extremes over the grid.
	MinEDP, MaxEDP float64
	// Ruggedness is the mean absolute normalized-EDP jump between
	// adjacent grid points divided by the grid's mean EDP — a scalar
	// summary of the non-smoothness Figure 3 visualizes.
	Ruggedness float64
}

// CostSurface reproduces Figure 3: it sweeps the L2-level tile factors of
// two dimensions (K and C for CNN) over their divisor grids with everything
// else held fixed, writes the surface as "fk fc edp" rows, and returns
// spikiness statistics. The paper uses this surface to show the space is
// non-convex and non-smooth.
func (h *Harness) CostSurface(w io.Writer) (*SurfaceStats, error) {
	p, err := h.problemFor("cnn-layer")
	if err != nil {
		return nil, err
	}
	return CostSurfaceFor(w, p, h.opts.Seed)
}

// CostSurfaceFor writes the Figure-3 surface for an explicit CNN problem;
// see Harness.CostSurface.
func CostSurfaceFor(w io.Writer, prob loopnest.Problem, seed int64) (*SurfaceStats, error) {
	if prob.Algo == nil || prob.Algo.Name != "cnn-layer" {
		return nil, fmt.Errorf("experiments: cost surface needs a cnn-layer problem")
	}
	sctx, err := search.NewContext("", arch.Default(2), prob)
	if err != nil {
		return nil, err
	}

	rng := stats.NewRNG(seed + 33)
	base := sctx.Space.Random(rng)
	kDivs := mapspace.Divisors(prob.Shape[loopnest.CNNDimK])
	cDivs := mapspace.Divisors(prob.Shape[loopnest.CNNDimC])

	fmt.Fprintf(w, "# Figure 3 cost surface for %s: rows fK (K tile at L2), cols fC, values EDP/min\n", prob.Name)
	grid := make([][]float64, len(kDivs))
	st := &SurfaceStats{MinEDP: math.Inf(1)}
	for i, fk := range kDivs {
		grid[i] = make([]float64, len(cDivs))
		for j, fc := range cDivs {
			m := base.Clone()
			m.SetChain(loopnest.CNNDimK, mapspace.FactorChain{1, 1, fk, prob.Shape[loopnest.CNNDimK] / fk})
			m.SetChain(loopnest.CNNDimC, mapspace.FactorChain{1, 1, fc, prob.Shape[loopnest.CNNDimC] / fc})
			m = sctx.Space.Repair(m)
			cost, err := costmodel.Evaluate(nil, sctx.Model, &m)
			if err != nil {
				return nil, err
			}
			edp := sctx.Bound.NormalizeEDP(cost.EDP)
			grid[i][j] = edp
			st.Points++
			if edp < st.MinEDP {
				st.MinEDP = edp
			}
			if edp > st.MaxEDP {
				st.MaxEDP = edp
			}
			fmt.Fprintf(w, "%d %d %.2f\n", fk, fc, edp)
		}
	}

	// Ruggedness: mean |Δ| across horizontally and vertically adjacent
	// cells, normalized by the mean EDP.
	var jumps, mean stats.Running
	for i := range grid {
		for j := range grid[i] {
			mean.Add(grid[i][j])
			if j+1 < len(grid[i]) {
				jumps.Add(math.Abs(grid[i][j+1] - grid[i][j]))
			}
			if i+1 < len(grid) {
				jumps.Add(math.Abs(grid[i+1][j] - grid[i][j]))
			}
		}
	}
	if mean.Mean() > 0 {
		st.Ruggedness = jumps.Mean() / mean.Mean()
	}
	fmt.Fprintf(w, "# points=%d min=%.1f max=%.1f ruggedness=%.3f\n",
		st.Points, st.MinEDP, st.MaxEDP, st.Ruggedness)
	return st, nil
}

// Table1 prints the paper's Table 1: the target problems per algorithm.
func (h *Harness) Table1(w io.Writer) error {
	problems, err := loopnest.Table1Problems()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Table 1: target problems for each target algorithm ==")
	fmt.Fprintf(w, "%-18s %-10s %s\n", "problem", "algorithm", "shape")
	for _, p := range problems {
		fmt.Fprintf(w, "%-18s %-10s %v", p.Name, p.Algo.Name, p.Shape)
		fmt.Fprintf(w, "  (MACs %.3g, %.3g words)\n", p.MACs(), p.TotalWords())
	}
	return nil
}

// SpaceCharacterization holds the §5.1.3 statistics for one algorithm.
type SpaceCharacterization struct {
	Algo string
	// EnergyMean and EnergyStd are over normalized energy (relative to the
	// per-problem lower bound). Paper: (44.2, 231.4) for CNN, (48.0, 51.2)
	// for MTTKRP over 1M samples.
	EnergyMean, EnergyStd float64
	// SizeLog10 is the per-problem map-space size exponent (upper bound);
	// paper quotes ~1e25 for ResNet Conv_4 and ~1e19 for MTTKRP_0.
	SizeLog10 map[string]float64
}

// SpaceStats reproduces the §5.1.3 map-space characterization: uniform
// samples per problem, energy normalized to the lower bound, aggregated
// per algorithm; plus map-space sizes.
func (h *Harness) SpaceStats(w io.Writer) ([]SpaceCharacterization, error) {
	problems, err := h.Problems()
	if err != nil {
		return nil, err
	}
	perAlgo := map[string]*stats.Running{}
	sizes := map[string]map[string]float64{}
	rng := stats.NewRNG(h.opts.Seed + 55)
	for _, p := range problems {
		sctx, err := search.NewContext(h.opts.CostModel, arch.Default(len(p.Algo.Tensors)-1), p)
		if err != nil {
			return nil, err
		}
		if perAlgo[p.Algo.Name] == nil {
			perAlgo[p.Algo.Name] = &stats.Running{}
			sizes[p.Algo.Name] = map[string]float64{}
		}
		sizes[p.Algo.Name][p.Name] = sctx.Space.SizeLog10()
		samples := h.opts.SpaceSamples / len(problems)
		if samples < 100 {
			samples = 100
		}
		var ws costmodel.Cost
		for i := 0; i < samples; i++ {
			m := sctx.Space.Random(rng)
			if err := sctx.Model.EvaluateInto(nil, &m, &ws); err != nil {
				return nil, err
			}
			perAlgo[p.Algo.Name].Add(sctx.Bound.NormalizeEnergy(ws.TotalEnergyPJ))
		}
	}
	var out []SpaceCharacterization
	fmt.Fprintln(w, "== §5.1.3 map-space characterization (energy normalized to lower bound) ==")
	for _, algo := range []string{"cnn-layer", "mttkrp"} {
		r := perAlgo[algo]
		if r == nil {
			continue
		}
		c := SpaceCharacterization{
			Algo:       algo,
			EnergyMean: r.Mean(),
			EnergyStd:  r.Std(),
			SizeLog10:  sizes[algo],
		}
		out = append(out, c)
		fmt.Fprintf(w, "%-10s mean=%.1f std=%.1f over %d samples (paper: CNN 44.2/231.4, MTTKRP 48.0/51.2)\n",
			algo, c.EnergyMean, c.EnergyStd, r.N())
		for name, lg := range c.SizeLog10 {
			fmt.Fprintf(w, "  |M(%s)| <= 10^%.1f\n", name, lg)
		}
	}
	return out, nil
}

// LossCurve reproduces Figure 7a: per-epoch train and test loss of the
// surrogate under the paper's recipe.
func (h *Harness) LossCurve(w io.Writer, algoName string) (*nn.History, error) {
	if _, err := h.Surrogate(algoName); err != nil {
		return nil, err
	}
	hist := h.hists[algoName]
	fmt.Fprintf(w, "== Figure 7a: %s surrogate loss (Huber) ==\n", algoName)
	fmt.Fprintf(w, "%-6s %12s %12s\n", "epoch", "train", "test")
	for i := range hist.TrainLoss {
		fmt.Fprintf(w, "%-6d %12.6f %12.6f\n", i, hist.TrainLoss[i], hist.TestLoss[i])
	}
	return hist, nil
}

// LossStudy is one row of the Figure-7b loss-function comparison.
type LossStudy struct {
	Loss string
	// LogTargets reports whether cost targets were log-compressed before
	// whitening (this repo's default) or left raw (the paper's setting).
	LogTargets bool
	// Corr is the log-EDP prediction correlation on the training
	// distribution; MAE the absolute normalized-EDP error.
	Corr, MAE float64
}

// LossFunctions reproduces Figure 7b: identical surrogates trained with
// Huber, MSE, and MAE criteria, compared on EDP prediction quality. The
// paper finds Huber best, MSE hurt by outliers, MAE by flat gradients.
func (h *Harness) LossFunctions(w io.Writer, algoName string) ([]LossStudy, error) {
	ds, err := h.Dataset(algoName)
	if err != nil {
		return nil, err
	}
	_, _, cfg, err := h.algoFor(algoName)
	if err != nil {
		return nil, err
	}
	var out []LossStudy
	fmt.Fprintf(w, "== Figure 7b: loss-function comparison (%s) ==\n", algoName)
	// Two target scalings: raw lower-bound-normalized costs (the paper's
	// setting, where MSE's outlier sensitivity and MAE's flat gradients
	// bite and Huber wins) and this repo's log-compressed default (which
	// tames the outliers for every loss).
	for _, logTargets := range []bool{false, true} {
		for _, loss := range []nn.Loss{nn.Huber{Delta: 1}, nn.MSE{}, nn.MAE{}} {
			c := cfg
			c.Train.Loss = loss
			c.LogOutputs = logTargets
			sur, _, err := surrogate.Train(ds, c)
			if err != nil {
				return nil, err
			}
			mae, corr, err := sur.EvaluateQuality(ds, 2000)
			if err != nil {
				return nil, err
			}
			out = append(out, LossStudy{Loss: loss.Name(), LogTargets: logTargets, Corr: corr, MAE: mae})
			fmt.Fprintf(w, "%-6s log=%-5v corr=%.3f mae=%.1f\n", loss.Name(), logTargets, corr, mae)
		}
	}
	return out, nil
}

// DatasetSizeStudy is one row of the Figure-7c training-set-size sweep.
type DatasetSizeStudy struct {
	Samples int
	Corr    float64
	// SearchEDP is the final normalized EDP of a Mind Mappings run driven
	// by the surrogate trained at this size.
	SearchEDP float64
}

// DatasetSize reproduces Figure 7c: surrogates trained on 10%/20%/50%/100%
// of the dataset (mirroring the paper's 1M/2M/5M/10M sweep) and the
// resulting search quality.
func (h *Harness) DatasetSize(w io.Writer, algoName string) ([]DatasetSizeStudy, error) {
	ds, err := h.Dataset(algoName)
	if err != nil {
		return nil, err
	}
	_, _, cfg, err := h.algoFor(algoName)
	if err != nil {
		return nil, err
	}
	target, err := h.problemFor(algoName)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "== Figure 7c: training-set size sweep (%s; paper sweeps 1M/2M/5M/10M) ==\n", algoName)
	var out []DatasetSizeStudy
	for _, frac := range []float64{0.1, 0.2, 0.5, 1.0} {
		n := int(float64(ds.Len()) * frac)
		var sur *surrogate.Surrogate
		if n == ds.Len() { // the whole set: the harness's own model
			sur, err = h.Surrogate(algoName)
		} else {
			var sub *surrogate.RawDataset
			if sub, err = ds.Subset(n); err == nil {
				sur, _, err = surrogate.Train(sub, cfg)
			}
		}
		if err != nil {
			return nil, err
		}
		_, corr, err := sur.EvaluateQuality(ds, 2000)
		if err != nil {
			return nil, err
		}
		rows, err := h.run([]cell{{prob: target, searcher: search.MindMappings{Surrogate: sur},
			label: fmt.Sprintf("MM (%d samples)", n), seed: h.opts.Seed + 7,
			budget: search.Budget{MaxEvals: h.opts.IsoIterations}}}, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, DatasetSizeStudy{Samples: n, Corr: corr, SearchEDP: rows[0].BestEDP})
		fmt.Fprintf(w, "%8d samples: corr=%.3f searchEDP=%.1f\n", n, corr, rows[0].BestEDP)
	}
	return out, nil
}

// AblationResult summarizes the §4.1.3 output-representation ablation.
type AblationResult struct {
	// MetaMSE and DirectMSE are mean squared errors of predicted vs true
	// normalized EDP (log scale) for the meta-statistics and direct-EDP
	// output representations. The paper reports the meta-statistics
	// representation achieving 32.8x lower MSE.
	MetaMSE, DirectMSE float64
	Ratio              float64
}

// OutputReprAblation reproduces the §4.1.3 claim that the rich
// meta-statistics output representation beats predicting EDP directly.
func (h *Harness) OutputReprAblation(w io.Writer, algoName string) (*AblationResult, error) {
	algo, a, cfg, err := h.algoFor(algoName)
	if err != nil {
		return nil, err
	}
	metaSur, err := h.Surrogate(algoName)
	if err != nil {
		return nil, err
	}
	directCfg := cfg
	directCfg.Mode = surrogate.OutputDirectEDP
	// The paper's strawman regresses EDP directly, without this repo's
	// log-compression rescue: the raw normalized-EDP targets span orders
	// of magnitude, which is precisely the pathology the meta-statistics
	// representation (lower-bound-normalized, per-component) avoids.
	directCfg.LogOutputs = false
	directDS, err := surrogate.Generate(algo, a, directCfg)
	if err != nil {
		return nil, err
	}
	directSur, _, err := surrogate.Train(directDS, directCfg)
	if err != nil {
		return nil, err
	}

	mseOf := func(s *surrogate.Surrogate, x [][]float64, trueEDP []float64) (float64, error) {
		pred, err := s.PredictBatch(x, 1, 1, nil)
		if err != nil {
			return 0, err
		}
		var sum float64
		for i, p := range pred {
			d := math.Log1p(math.Max(0, p)) - math.Log1p(trueEDP[i])
			sum += d * d
		}
		return sum / float64(len(x)), nil
	}
	// Shared evaluation set: the direct dataset's tail (same generator
	// seed as meta, so mappings align; EDP targets are explicit there).
	n := directDS.Len()
	eval := n / 5
	x := directDS.X[n-eval:]
	var trueEDP []float64
	for _, y := range directDS.Y[n-eval:] {
		trueEDP = append(trueEDP, y[0])
	}
	metaMSE, err := mseOf(metaSur, x, trueEDP)
	if err != nil {
		return nil, err
	}
	directMSE, err := mseOf(directSur, x, trueEDP)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{MetaMSE: metaMSE, DirectMSE: directMSE}
	if metaMSE > 0 {
		res.Ratio = directMSE / metaMSE
	}
	fmt.Fprintf(w, "== §4.1.3 output-representation ablation (%s) ==\n", algoName)
	fmt.Fprintf(w, "meta-stats log-EDP MSE  %.4f\ndirect-EDP log-EDP MSE  %.4f\nratio (direct/meta)     %.1fx (paper: 32.8x)\n",
		res.MetaMSE, res.DirectMSE, res.Ratio)
	return res, nil
}

// StepCost is the per-evaluation cost of one method on the run's clock:
// wall-clock time plus the query latency charged to it.
type StepCost struct {
	Method    string
	PerStep   time.Duration
	RatioToMM float64
}

// PerStepCost reproduces the §5.4.2 per-step cost comparison: how much
// slower each baseline's step is than a Mind Mappings surrogate step
// (paper: SA 153.7x, GA 286.8x, RL 425.5x) when the reference cost model
// has realistic query latency.
func (h *Harness) PerStepCost(w io.Writer) ([]StepCost, error) {
	problems, err := h.Problems()
	if err != nil {
		return nil, err
	}
	prob := problems[0]
	methods, err := h.methods(prob.Algo.Name)
	if err != nil {
		return nil, err
	}
	cells := make([]cell, len(methods))
	for i, method := range methods {
		cells[i] = cell{prob: prob, searcher: method, seed: h.opts.Seed,
			budget: search.Budget{MaxEvals: 100}, latency: h.opts.QueryLatency}
	}
	rows, err := h.run(cells, nil)
	if err != nil {
		return nil, err
	}
	var out []StepCost
	var mmStep time.Duration
	for i, r := range rows {
		per := time.Duration(0)
		if r.Evals > 0 {
			per = r.Elapsed / time.Duration(r.Evals)
		}
		out = append(out, StepCost{Method: methods[i].Name(), PerStep: per})
		if methods[i].Name() == "MM" {
			mmStep = per
		}
	}
	fmt.Fprintf(w, "== §5.4.2 per-step cost on %s (reference-model latency %v) ==\n", prob.Name, h.opts.QueryLatency)
	for i := range out {
		if mmStep > 0 {
			out[i].RatioToMM = float64(out[i].PerStep) / float64(mmStep)
		}
		fmt.Fprintf(w, "%-8s %12v/step %8.1fx vs MM\n", out[i].Method, out[i].PerStep, out[i].RatioToMM)
	}
	fmt.Fprintln(w, "(paper: SA 153.7x, GA 286.8x, RL 425.5x slower per step than MM)")
	return out, nil
}
