package surrogate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
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

func TestGoldenRecipeDigests(t *testing.T) {
	for i, name := range []string{"cnn-layer", "mttkrp"} {
		algo := loopnest.MustAlgorithm(name)
		cfg := TinyConfig()
		cfg.Samples, cfg.Problems, cfg.Train.Epochs = 1200, 6, 6
		cfg.HiddenSizes = []int{32, 32}
		cfg.Seed = int64(1 + i)
		ds, err := Generate(algo, arch.Default(len(algo.Tensors)-1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sur, hist, err := Train(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := [2]string{datasetDigest(ds), surrogateDigest(sur, hist)}
		if want := goldenRecipeDigests[name]; got != want {
			t.Errorf("%s: dataset/weights digests %q, pinned %q", name, got, want)
		}
	}
}
