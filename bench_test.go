// Root-level benchmarks: one per table and figure of the paper's
// evaluation (see DESIGN.md §2 for the index). Each benchmark runs the
// corresponding experiment through internal/experiments at test scale and
// reports the paper's headline metric via b.ReportMetric; run
// cmd/experiments for the full-scale numbers and the complete rendered
// series.
package mindmappings_test

import (
	"io"
	"sync"
	"testing"
	"time"

	"mindmappings/internal/costmodel"
	"mindmappings/internal/experiments"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/oracle"
	"mindmappings/internal/search"
	"mindmappings/internal/stats"
	"mindmappings/internal/surrogate"

	archpkg "mindmappings/internal/arch"
)

var (
	benchOnce sync.Once
	benchH    *experiments.Harness
)

// benchHarness returns a shared fast-scale harness so surrogate training
// happens once across all benchmarks.
func benchHarness(b *testing.B) *experiments.Harness {
	b.Helper()
	benchOnce.Do(func() {
		opts := experiments.Defaults(true)
		opts.IsoIterations = 300
		opts.IsoTime = 300 * time.Millisecond
		opts.QueryLatency = 500 * time.Microsecond
		opts.SpaceSamples = 2000
		benchH = experiments.New(opts)
	})
	return benchH
}

// BenchmarkFig3CostSurface regenerates the Figure-3 cost surface and
// reports its ruggedness (mean adjacent-point EDP jump over mean EDP) —
// the non-smoothness that motivates the whole paper.
func BenchmarkFig3CostSurface(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		st, err := h.CostSurface(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(st.Ruggedness, "ruggedness")
		b.ReportMetric(st.MaxEDP/st.MinEDP, "max/min")
	}
}

// BenchmarkTable1MapSpaceStats reproduces the §5.1.3 characterization:
// normalized-energy mean/std of uniform samples (paper: CNN 44.2/231.4,
// MTTKRP 48.0/51.2) and map-space sizes.
func BenchmarkTable1MapSpaceStats(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		chars, err := h.SpaceStats(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range chars {
			switch c.Algo {
			case "cnn-layer":
				b.ReportMetric(c.EnergyMean, "cnn-Emean")
				b.ReportMetric(c.EnergyStd, "cnn-Estd")
			case "mttkrp":
				b.ReportMetric(c.EnergyMean, "mtt-Emean")
				b.ReportMetric(c.EnergyStd, "mtt-Estd")
			}
		}
	}
}

// BenchmarkFig5IsoIteration reproduces Figure 5 and reports the geomean
// EDP ratios of each baseline to Mind Mappings at a fixed evaluation count
// (paper: SA 1.40x, GA 1.76x, RL 1.29x).
func BenchmarkFig5IsoIteration(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		cmp, err := h.RunIsoIteration()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.RatiosVsMM["SA"], "SAvsMM")
		b.ReportMetric(cmp.RatiosVsMM["GA"], "GAvsMM")
		b.ReportMetric(cmp.RatiosVsMM["RL"], "RLvsMM")
		b.ReportMetric(cmp.MMvsOracle, "MMvsMin")
	}
}

// BenchmarkFig6IsoTime reproduces Figure 6 (fixed wall-clock, emulated
// reference-model latency) and reports the same ratios (paper: SA 3.16x,
// GA 4.19x, RL 2.90x).
func BenchmarkFig6IsoTime(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		cmp, err := h.RunIsoTime()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.RatiosVsMM["SA"], "SAvsMM")
		b.ReportMetric(cmp.RatiosVsMM["GA"], "GAvsMM")
		b.ReportMetric(cmp.RatiosVsMM["RL"], "RLvsMM")
		b.ReportMetric(cmp.MMvsOracle, "MMvsMin")
	}
}

// BenchmarkSummaryRatios runs both comparisons back to back — the paper's
// abstract-level headline numbers in one benchmark.
func BenchmarkSummaryRatios(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		iso, err := h.RunIsoIteration()
		if err != nil {
			b.Fatal(err)
		}
		it, err := h.RunIsoTime()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(iso.RatiosVsMM["SA"], "iter-SA")
		b.ReportMetric(iso.RatiosVsMM["GA"], "iter-GA")
		b.ReportMetric(iso.RatiosVsMM["RL"], "iter-RL")
		b.ReportMetric(it.RatiosVsMM["SA"], "time-SA")
		b.ReportMetric(it.RatiosVsMM["GA"], "time-GA")
		b.ReportMetric(it.RatiosVsMM["RL"], "time-RL")
	}
}

// BenchmarkFig7aTrainingLoss retrains the surrogate under the paper's
// recipe and reports final train/test Huber loss (Figure 7a's endpoint).
func BenchmarkFig7aTrainingLoss(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		hist, err := h.LossCurve(io.Discard, "cnn-layer")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(hist.FinalTrain(), "trainloss")
		b.ReportMetric(hist.FinalTest(), "testloss")
	}
}

// BenchmarkFig7bLossFunctions compares Huber/MSE/MAE training criteria by
// EDP-prediction correlation (Figure 7b; the paper selects Huber).
func BenchmarkFig7bLossFunctions(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		studies, err := h.LossFunctions(io.Discard, "cnn-layer")
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range studies {
			name := s.Loss + "-raw"
			if s.LogTargets {
				name = s.Loss + "-log"
			}
			b.ReportMetric(s.Corr, name)
		}
	}
}

// BenchmarkFig7cDatasetSize sweeps training-set sizes (the scaled analog
// of the paper's 1M/2M/5M/10M) and reports the search EDP each surrogate
// achieves.
func BenchmarkFig7cDatasetSize(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		studies, err := h.DatasetSize(io.Discard, "cnn-layer")
		if err != nil {
			b.Fatal(err)
		}
		if len(studies) > 0 {
			b.ReportMetric(studies[0].SearchEDP, "smallest")
			b.ReportMetric(studies[len(studies)-1].SearchEDP, "largest")
		}
	}
}

// BenchmarkAblationOutputRepr reproduces the §4.1.3 ablation: the
// meta-statistics output representation vs. predicting EDP directly
// (paper: 32.8x lower MSE for meta-statistics).
func BenchmarkAblationOutputRepr(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		res, err := h.OutputReprAblation(io.Discard, "cnn-layer")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Ratio, "direct/meta-MSE")
	}
}

// BenchmarkPerStepCost reproduces the §5.4.2 per-step cost ratios (paper:
// SA 153.7x, GA 286.8x, RL 425.5x slower per step than MM).
func BenchmarkPerStepCost(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		costs, err := h.PerStepCost(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range costs {
			if c.Method != "MM" {
				b.ReportMetric(c.RatioToMM, c.Method+"vsMM")
			}
		}
	}
}

// --- Micro-benchmarks of the core primitives ---

func benchCNNSetup(b *testing.B) (costmodel.Evaluator, *mapspace.Space, oracle.Bound) {
	b.Helper()
	prob, err := loopnest.NewCNNProblem("ResNet_Conv_4", 16, 256, 256, 14, 14, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	a := archpkg.Default(2)
	model, err := costmodel.New("timeloop", a, prob)
	if err != nil {
		b.Fatal(err)
	}
	space, err := mapspace.New(a, prob)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := oracle.Compute(a, prob)
	if err != nil {
		b.Fatal(err)
	}
	return model, space, bound
}

// BenchmarkCostModelQuery measures one reference-cost-model evaluation
// (the per-step price every black-box baseline pays, before any latency
// emulation).
func BenchmarkCostModelQuery(b *testing.B) {
	model, space, _ := benchCNNSetup(b)
	rng := stats.NewRNG(1)
	m := space.Random(rng)
	var ws costmodel.Cost
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := model.EvaluateInto(nil, &m, &ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurrogateGradientStep measures one Mind Mappings iteration's
// surrogate work: forward pass plus input-gradient backprop, as a 1-row
// GradientBatch.
func BenchmarkSurrogateGradientStep(b *testing.B) {
	h := benchHarness(b)
	sur, err := h.Surrogate("cnn-layer")
	if err != nil {
		b.Fatal(err)
	}
	_, space, _ := benchCNNSetup(b)
	rng := stats.NewRNG(1)
	m := space.Random(rng)
	vecs := [][]float64{space.Encode(&m)}
	var vals []float64
	var grads [][]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vals, grads, err = sur.GradientBatch(vecs, 1, 1, vals, grads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProjection measures one projected-gradient-descent projection
// (decode + nearest-valid repair).
func BenchmarkProjection(b *testing.B) {
	_, space, _ := benchCNNSetup(b)
	rng := stats.NewRNG(1)
	m := space.Random(rng)
	vec := space.Encode(&m)
	for i := range vec {
		vec[i] += 0.3 * rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := space.Decode(vec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMindMappingsSearch measures the end-to-end Phase-2 search at a
// small budget.
func BenchmarkMindMappingsSearch(b *testing.B) {
	h := benchHarness(b)
	sur, err := h.Surrogate("cnn-layer")
	if err != nil {
		b.Fatal(err)
	}
	model, space, bound := benchCNNSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := &search.Context{Space: space, Model: model, Bound: bound, Seed: int64(i)}
		mm := search.MindMappings{Surrogate: sur}
		res, err := mm.Search(ctx, search.Budget{MaxEvals: 100})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BestEDP, "EDP/min")
	}
}

// BenchmarkSurrogateTraining measures Phase-1 training on a small dataset
// (dataset generation excluded).
func BenchmarkSurrogateTraining(b *testing.B) {
	cfg := surrogate.TinyConfig()
	cfg.Samples = 2000
	cfg.Train.Epochs = 5
	ds, err := surrogate.Generate(loopnest.MustAlgorithm("cnn-layer"), archpkg.Default(2), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := surrogate.Train(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension studies (DESIGN.md §2: ablations and generality) ---

// BenchmarkAblationSearchComponents isolates the value of the surrogate
// gradients: full MM vs no-injection vs no-preconditioning vs the
// gradient-free SA+f* control vs beam search.
func BenchmarkAblationSearchComponents(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		rows, err := h.SearchComponents(io.Discard, "cnn-layer")
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Variant {
			case "MM (full)":
				b.ReportMetric(r.EDP, "MM-full")
			case "SA+f* (no gradients)":
				b.ReportMetric(r.EDP, "SA+f*")
			case "Beam":
				b.ReportMetric(r.EDP, "Beam")
			}
		}
	}
}

// BenchmarkAblationTailBias compares uniform-only Phase-1 sampling (the
// paper's default, viable at 10M samples) against the tail-enriched
// laptop-scale substitute.
func BenchmarkAblationTailBias(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		rows, err := h.TailBiasAblation(io.Discard, "cnn-layer")
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.TailBias == 0 {
				b.ReportMetric(r.SearchEDP, "uniform-EDP")
			} else {
				b.ReportMetric(r.SearchEDP, "tail-EDP")
			}
		}
	}
}

// BenchmarkArchGenerality reruns MM vs SA on the edge accelerator variant
// (the §5.4.3 generality claim).
func BenchmarkArchGenerality(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		res, err := h.ArchGenerality(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MMEDP, "MM-EDP")
		b.ReportMetric(res.SAEDP, "SA-EDP")
	}
}
