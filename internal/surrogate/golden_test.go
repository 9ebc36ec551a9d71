package surrogate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sync"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/nn"
)

// goldenRecipeDigests pins Phase 1 on the benchmark's training recipe
// (1200 samples over 6 problems, 6 epochs, [32 32] hidden, cnn-layer at
// seed 1 and mttkrp at seed 2, the tiny config otherwise): the sha256
// (first 8 bytes, hex) of the generated dataset, and of the trained
// weights with both loss histories. They were recorded with per-sample
// labeling and the per-sample minibatch loop.
var goldenRecipeDigests = map[string][2]string{
	"cnn-layer": {"a4dfc23454f80634", "24d227c766994746"},
	"mttkrp":    {"88a4648b14ab92b5", "40aea3d3b51daaa2"},
}

func hashFloats(h hash.Hash, vs []float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

func datasetDigest(ds *RawDataset) string {
	h := sha256.New()
	for i := range ds.X {
		hashFloats(h, ds.X[i])
		hashFloats(h, ds.Y[i])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func surrogateDigest(s *Surrogate, hist *nn.History) string {
	h := sha256.New()
	for _, l := range s.Net.Layers {
		hashFloats(h, l.W.Data)
		hashFloats(h, l.B)
	}
	hashFloats(h, hist.TrainLoss)
	hashFloats(h, hist.TestLoss)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// recipeRun is one benchmark-recipe Phase-1 run: its dataset, surrogate
// and loss history.
type recipeRun struct {
	ds   *RawDataset
	sur  *Surrogate
	hist *nn.History
}

var (
	recipeOnce sync.Once
	recipeRuns map[string]recipeRun
	recipeErr  error
)

// recipeFixture runs the benchmark's training recipe once per test binary
// (cnn-layer at seed 1, mttkrp at seed 2) and a direct-EDP conv1d run on
// the same recipe (seed 3).
func recipeFixture(t *testing.T) map[string]recipeRun {
	t.Helper()
	recipeOnce.Do(func() {
		recipeRuns = map[string]recipeRun{}
		for i, name := range []string{"cnn-layer", "mttkrp", "direct"} {
			algoName := name
			cfg := TinyConfig()
			cfg.Samples, cfg.Problems, cfg.Train.Epochs = 1200, 6, 6
			cfg.HiddenSizes = []int{32, 32}
			cfg.Seed = int64(1 + i)
			if name == "direct" {
				algoName, cfg.Mode = "conv1d", OutputDirectEDP
			}
			algo := loopnest.MustAlgorithm(algoName)
			ds, err := Generate(algo, arch.Default(len(algo.Tensors)-1), cfg)
			if err != nil {
				recipeErr = err
				return
			}
			sur, hist, err := Train(ds, cfg)
			if err != nil {
				recipeErr = err
				return
			}
			recipeRuns[name] = recipeRun{ds, sur, hist}
		}
	})
	if recipeErr != nil {
		t.Fatal(recipeErr)
	}
	return recipeRuns
}

func TestGoldenRecipeDigests(t *testing.T) {
	runs := recipeFixture(t)
	for _, name := range []string{"cnn-layer", "mttkrp"} {
		r := runs[name]
		got := [2]string{datasetDigest(r.ds), surrogateDigest(r.sur, r.hist)}
		if want := goldenRecipeDigests[name]; got != want {
			t.Errorf("%s: dataset/weights digests %q, pinned %q", name, got, want)
		}
	}
}

// goldenInferenceDigests pins every surrogate query bit for bit on the
// recipe surrogates: the sha256 (first 8 bytes, hex) of inferenceDigest.
// They were recorded while the surrogate still had one-row scalar queries
// beside the batched ones.
var goldenInferenceDigests = map[string]string{
	"cnn-layer": "7294eee95399b9c7",
	"mttkrp":    "6de688ff621a78d5",
	"direct":    "3dcbca1ff2b430c1",
}

// inferenceDigest hashes PredictBatch at four objectives and
// GradientBatch (values and gradients) at two, each over 1 row and over
// row counts around the internal chunk size, then PredictMetaStats on 8
// rows and EvaluateQuality's (mae, corr) over the whole dataset. A
// direct-EDP surrogate answers only the EDP objective and has no
// meta-statistics.
func inferenceDigest(t *testing.T, s *Surrogate, ds *RawDataset) string {
	t.Helper()
	h := sha256.New()
	objectives := [][2]float64{{1, 1}, {1, 2}, {1, 0}, {0, 1}}
	gradObjectives := objectives[:2]
	if s.Mode == OutputDirectEDP {
		objectives, gradObjectives = objectives[:1], objectives[:1]
	}
	rows := []int{1, 31, 32, 33, 69}
	for _, exp := range objectives {
		for _, n := range rows {
			vals, err := s.PredictBatch(ds.X[:n], exp[0], exp[1], nil)
			if err != nil {
				t.Fatal(err)
			}
			hashFloats(h, vals)
		}
	}
	for _, exp := range gradObjectives {
		for _, n := range rows {
			vals, grads, err := s.GradientBatch(ds.X[:n], exp[0], exp[1], nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			hashFloats(h, vals)
			for _, g := range grads {
				hashFloats(h, g)
			}
		}
	}
	if s.Mode == OutputMetaStats {
		for _, x := range ds.X[:8] {
			meta, err := s.PredictMetaStats(x)
			if err != nil {
				t.Fatal(err)
			}
			hashFloats(h, meta)
		}
	}
	mae, corr, err := s.EvaluateQuality(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	hashFloats(h, []float64{mae, corr})
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func TestGoldenInferenceDigests(t *testing.T) {
	runs := recipeFixture(t)
	for _, name := range []string{"cnn-layer", "mttkrp", "direct"} {
		r := runs[name]
		if got, want := inferenceDigest(t, r.sur, r.ds), goldenInferenceDigests[name]; got != want {
			t.Errorf("%s: inference digest %q, pinned %q", name, got, want)
		}
	}
}
