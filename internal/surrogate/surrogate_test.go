package surrogate

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/nn"
	"mindmappings/internal/oracle"
	"mindmappings/internal/stats"
)

// Shared fixtures: dataset generation and training are the expensive parts
// of this package, so tests share one trained CNN surrogate.
var (
	fixtureOnce sync.Once
	fixtureDS   *RawDataset
	fixtureSur  *Surrogate
	fixtureHist *nn.History
	fixtureErr  error
)

func cnnFixture(t *testing.T) (*RawDataset, *Surrogate, *nn.History) {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := TinyConfig()
		ds, err := Generate(loopnest.MustAlgorithm("cnn-layer"), arch.Default(2), cfg)
		if err != nil {
			fixtureErr = err
			return
		}
		sur, hist, err := Train(ds, cfg)
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureDS, fixtureSur, fixtureHist = ds, sur, hist
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureDS, fixtureSur, fixtureHist
}

func TestConfigValidate(t *testing.T) {
	bad := TinyConfig()
	bad.HiddenSizes = nil
	if err := bad.validate(); err == nil {
		t.Fatal("accepted empty hidden sizes")
	}
	bad = TinyConfig()
	bad.Samples = 1
	if err := bad.validate(); err == nil {
		t.Fatal("accepted 1 sample")
	}
	bad = TinyConfig()
	bad.Problems = 0
	if err := bad.validate(); err == nil {
		t.Fatal("accepted 0 problems")
	}
	bad = TinyConfig()
	bad.TestFrac = 1.5
	if err := bad.validate(); err == nil {
		t.Fatal("accepted bad test fraction")
	}
}

func TestPaperConfigMatchesPaper(t *testing.T) {
	cfg := PaperConfig()
	wantHidden := []int{64, 256, 1024, 2048, 2048, 1024, 256, 64}
	if len(cfg.HiddenSizes) != len(wantHidden) {
		t.Fatalf("hidden sizes %v", cfg.HiddenSizes)
	}
	for i := range wantHidden {
		if cfg.HiddenSizes[i] != wantHidden[i] {
			t.Fatalf("hidden sizes %v, want %v (paper §5.5)", cfg.HiddenSizes, wantHidden)
		}
	}
	if cfg.Samples != 10_000_000 {
		t.Fatalf("samples = %d, want 10M", cfg.Samples)
	}
	if cfg.Train.Loss.Name() != "huber" {
		t.Fatal("paper loss must be huber")
	}
}

func TestGenerateShapes(t *testing.T) {
	ds, _, _ := cnnFixture(t)
	cfg := TinyConfig()
	if ds.Len() != cfg.Samples {
		t.Fatalf("dataset size %d, want %d", ds.Len(), cfg.Samples)
	}
	// CNN encoding width 62, meta-stats width 12 (§5.5).
	if len(ds.X[0]) != 62 {
		t.Fatalf("input width %d, want 62", len(ds.X[0]))
	}
	if len(ds.Y[0]) != 12 {
		t.Fatalf("target width %d, want 12", len(ds.Y[0]))
	}
}

func TestGenerateTargetsNormalized(t *testing.T) {
	ds, _, _ := cnnFixture(t)
	nt := 3
	totalIdx, utilIdx, cyclesIdx := metaIndices(nt)
	for i := 0; i < 100; i++ {
		y := ds.Y[i]
		if y[totalIdx] < 0.9 {
			t.Fatalf("normalized total energy %v < 0.9 (below lower bound)", y[totalIdx])
		}
		if y[cyclesIdx] < 0.99 {
			t.Fatalf("normalized cycles %v < 1", y[cyclesIdx])
		}
		if y[utilIdx] <= 0 || y[utilIdx] > 1 {
			t.Fatalf("utilization %v out of (0,1]", y[utilIdx])
		}
	}
}

func TestGenerateSpansMultipleProblems(t *testing.T) {
	ds, _, _ := cnnFixture(t)
	pids := map[string]bool{}
	for _, x := range ds.X {
		key := ""
		for _, v := range x[:7] {
			key += string(rune(int('a') + int(v)))
		}
		pids[key] = true
	}
	if len(pids) < 4 {
		t.Fatalf("dataset covers only %d problems", len(pids))
	}
}

func TestGenerateTailBiasCoversLowCosts(t *testing.T) {
	// Tail-enriched sampling must shift the EDP distribution of the
	// dataset toward the low-cost region relative to pure uniform.
	base := TinyConfig()
	base.Samples = 1500
	base.Problems = 4
	uniform := base
	uniform.TailBias = 0
	biased := base
	biased.TailBias = 0.7

	meanEDP := func(cfg Config) float64 {
		ds, err := Generate(fixtureAlgoConv1D(), fixtureArch2(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, y := range ds.Y {
			total += trueEDPFromTarget(y, ds.Mode, len(fixtureAlgoConv1D().Tensors))
		}
		return total / float64(ds.Len())
	}
	u := meanEDP(uniform)
	b := meanEDP(biased)
	if b >= u {
		t.Fatalf("tail-biased mean EDP %v not below uniform %v", b, u)
	}
}

func TestSubset(t *testing.T) {
	ds, _, _ := cnnFixture(t)
	sub, err := ds.Subset(100)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 100 {
		t.Fatalf("subset len %d", sub.Len())
	}
	if _, err := ds.Subset(0); err == nil {
		t.Fatal("accepted subset 0")
	}
	if _, err := ds.Subset(ds.Len() + 1); err == nil {
		t.Fatal("accepted oversized subset")
	}
}

func TestTrainingConverges(t *testing.T) {
	_, _, hist := cnnFixture(t)
	if len(hist.TrainLoss) == 0 || len(hist.TestLoss) == 0 {
		t.Fatal("missing loss history")
	}
	if hist.FinalTrain() >= hist.TrainLoss[0] {
		t.Fatalf("train loss did not decrease: %v -> %v", hist.TrainLoss[0], hist.FinalTrain())
	}
	// Test loss should track training loss (no gross overfit), mirroring
	// Figure 7a's "test loss closely follows the train loss".
	if hist.FinalTest() > 3*hist.FinalTrain()+0.1 {
		t.Fatalf("test loss %v diverged from train loss %v", hist.FinalTest(), hist.FinalTrain())
	}
}

func TestSurrogatePredictsUsefully(t *testing.T) {
	ds, sur, _ := cnnFixture(t)
	_, corr, err := sur.EvaluateQuality(ds, 500)
	if err != nil {
		t.Fatal(err)
	}
	// The tiny surrogate must still rank mappings: log-EDP correlation
	// well above chance.
	if corr < 0.5 {
		t.Fatalf("log-EDP correlation %v < 0.5; surrogate not learning", corr)
	}
}

func TestPredictEDPInputValidation(t *testing.T) {
	_, sur, _ := cnnFixture(t)
	if _, err := predictOne(sur, make([]float64, 3), 1, 1); err == nil {
		t.Fatal("PredictBatch accepted wrong-length input")
	}
	if _, _, err := gradientOne(sur, make([]float64, 3), 1, 1); err == nil {
		t.Fatal("GradientBatch accepted wrong-length input")
	}
	if _, err := sur.PredictMetaStats(make([]float64, 3)); err == nil {
		t.Fatal("PredictMetaStats accepted wrong-length input")
	}
}

func TestPredictMetaStats(t *testing.T) {
	ds, sur, _ := cnnFixture(t)
	meta, err := sur.PredictMetaStats(ds.X[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(meta) != 12 {
		t.Fatalf("meta length %d", len(meta))
	}
}

// The surrogate gradient must match finite differences of the predicted
// EDP — the correctness condition for the entire Phase-2 machinery.
func TestGradientEDPMatchesFiniteDifference(t *testing.T) {
	ds, sur, _ := cnnFixture(t)
	const h = 1e-5
	for trial := 0; trial < 5; trial++ {
		x := append([]float64(nil), ds.X[trial*7]...)
		edp, grad, err := gradientOne(sur, x, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(edp) {
			t.Fatal("NaN EDP prediction")
		}
		// Check a handful of coordinates.
		for _, i := range []int{0, 7, 15, 30, len(x) - 1} {
			orig := x[i]
			x[i] = orig + h
			fp, err := predictOne(sur, x, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			x[i] = orig - h
			fm, err := predictOne(sur, x, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			x[i] = orig
			fd := (fp - fm) / (2 * h)
			if math.Abs(fd-grad[i]) > 1e-3*(1+math.Abs(fd)) {
				t.Fatalf("trial %d grad[%d]: fd=%v analytic=%v", trial, i, fd, grad[i])
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds, sur, _ := cnnFixture(t)
	var buf bytes.Buffer
	if err := sur.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.AlgoName != sur.AlgoName || loaded.NumTensors != sur.NumTensors {
		t.Fatal("metadata lost in round trip")
	}
	a, err := sur.PredictBatch(ds.X[:10], 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.PredictBatch(ds.X[:10], 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d changed after round trip: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("garbage")); err == nil {
		t.Fatal("accepted garbage")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	_, sur, _ := cnnFixture(t)
	var buf bytes.Buffer
	if err := sur.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Load(bytes.NewReader(raw[:len(raw)/3])); err == nil {
		t.Fatal("accepted truncated stream")
	}
}

// TestLoadRejectsUnknownOutputMode: a file whose output mode is neither
// meta-statistics nor direct EDP must fail to load, since every query
// reads its outputs by mode.
func TestLoadRejectsUnknownOutputMode(t *testing.T) {
	_, sur, _ := cnnFixture(t)
	bad := &Surrogate{
		AlgoName:   sur.AlgoName,
		Arch:       sur.Arch,
		Net:        sur.Net,
		InNorm:     sur.InNorm,
		OutNorm:    sur.OutNorm,
		Mode:       7,
		NumTensors: 50,
	}
	var buf bytes.Buffer
	if err := bad.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "output mode 7") {
		t.Fatalf("Load of an output-mode-7 file: err %v, want an unknown-mode error", err)
	}
}

func TestDirectEDPMode(t *testing.T) {
	// Small end-to-end run of the §4.1.3 ablation's strawman: 1-output
	// surrogate on the cheap Conv1D algorithm.
	cfg := TinyConfig()
	cfg.Mode = OutputDirectEDP
	cfg.Samples = 800
	cfg.Train.Epochs = 6
	ds, err := Generate(loopnest.MustAlgorithm("conv1d"), arch.Default(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Y[0]) != 1 {
		t.Fatalf("direct mode target width %d, want 1", len(ds.Y[0]))
	}
	sur, _, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := predictOne(sur, ds.X[0], 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sur.PredictMetaStats(ds.X[0]); err == nil {
		t.Fatal("meta stats must be unavailable in direct mode")
	}
	if _, _, err := gradientOne(sur, ds.X[0], 1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestTrainRejectsModeMismatch(t *testing.T) {
	ds, _, _ := cnnFixture(t)
	cfg := TinyConfig()
	cfg.Mode = OutputDirectEDP
	if _, _, err := Train(ds, cfg); err == nil {
		t.Fatal("accepted meta-stats dataset for direct-EDP config")
	}
}

func TestNormalizeTargetEDPIdentity(t *testing.T) {
	// normalized totalEnergy x normalized cycles == normalized EDP must
	// hold exactly, since Phase 2 optimizes that product.
	prob, err := loopnest.NewCNNProblem("t", 4, 16, 8, 14, 14, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Default(2)
	model, err := costmodel.New("timeloop", a, prob)
	if err != nil {
		t.Fatal(err)
	}
	space, err := mapspace.New(a, prob)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := oracle.Compute(a, prob)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	for i := 0; i < 20; i++ {
		m := space.Random(rng)
		cost, err := costmodel.Evaluate(nil, model, &m)
		if err != nil {
			t.Fatal(err)
		}
		y := normalizeTarget(&cost, bound, OutputMetaStats)
		totalIdx, _, cyclesIdx := metaIndices(3)
		product := y[totalIdx] * y[cyclesIdx]
		want := bound.NormalizeEDP(cost.EDP)
		if math.Abs(product-want) > 1e-9*want {
			t.Fatalf("normalized product %v != normalized EDP %v", product, want)
		}
	}
}

func TestPearson(t *testing.T) {
	if c := pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(c-1) > 1e-12 {
		t.Fatalf("perfect correlation = %v", c)
	}
	if c := pearson([]float64{1, 2, 3}, []float64{3, 2, 1}); math.Abs(c+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %v", c)
	}
	if c := pearson([]float64{1, 1}, []float64{2, 3}); c != 0 {
		t.Fatalf("degenerate correlation = %v", c)
	}
	if c := pearson([]float64{1}, []float64{2}); c != 0 {
		t.Fatal("single sample correlation must be 0")
	}
}

func TestMetaIndices(t *testing.T) {
	total, util, cycles := metaIndices(3)
	if total != 9 || util != 10 || cycles != 11 {
		t.Fatalf("CNN meta indices = %d/%d/%d", total, util, cycles)
	}
	total, util, cycles = metaIndices(4)
	if total != 12 || util != 13 || cycles != 14 {
		t.Fatalf("MTTKRP meta indices = %d/%d/%d", total, util, cycles)
	}
}

// Fixture helpers shared with dataset_io_test.go.
func fixtureAlgoConv1D() *loopnest.Algorithm { return loopnest.MustAlgorithm("conv1d") }
func fixtureArch2() arch.Spec                { return arch.Default(2) }
