package surrogate

import (
	"sync"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/nn"
	"mindmappings/internal/stats"
)

var (
	batchOnce sync.Once
	batchSur  *Surrogate
	batchVecs [][]float64
	batchErr  error
)

// batchFixture trains one tiny conv1d surrogate and samples encoded
// mapping vectors, shared across the batch tests.
func batchFixture(t testing.TB) (*Surrogate, [][]float64) {
	t.Helper()
	batchOnce.Do(func() {
		cfg := TinyConfig()
		cfg.HiddenSizes = []int{32, 32}
		cfg.Samples = 1500
		cfg.Problems = 4
		cfg.Train.Epochs = 8
		ds, err := Generate(loopnest.MustAlgorithm("conv1d"), arch.Default(2), cfg)
		if err != nil {
			batchErr = err
			return
		}
		batchSur, _, batchErr = Train(ds, cfg)
		if batchErr != nil {
			return
		}
		p, err := loopnest.NewConv1DProblem("batch-test", 1024, 5)
		if err != nil {
			batchErr = err
			return
		}
		space, err := mapspace.New(arch.Default(2), p)
		if err != nil {
			batchErr = err
			return
		}
		rng := stats.NewRNG(17)
		for i := 0; i < 37; i++ {
			m := space.Random(rng)
			batchVecs = append(batchVecs, space.Encode(&m))
		}
	})
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	return batchSur, batchVecs
}

// predictOne is PredictBatch on the 1-row batch {vec}.
func predictOne(s *Surrogate, vec []float64, eExp, dExp float64) (float64, error) {
	vals, err := s.PredictBatch([][]float64{vec}, eExp, dExp, nil)
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// gradientOne is GradientBatch on the 1-row batch {vec}.
func gradientOne(s *Surrogate, vec []float64, eExp, dExp float64) (float64, []float64, error) {
	vals, grads, err := s.GradientBatch([][]float64{vec}, eExp, dExp, nil, nil)
	if err != nil {
		return 0, nil, err
	}
	return vals[0], grads[0], nil
}

// TestPredictBatchBitIdenticalToScalar is the acceptance-criterion guard:
// every row of a batched prediction must equal the 1-row (scalar) query of the
// same vector bit for bit, across objectives and batch sizes spanning
// chunk boundaries.
func TestPredictBatchBitIdenticalToScalar(t *testing.T) {
	sur, vecs := batchFixture(t)
	objectives := [][2]float64{{1, 1}, {1, 2}, {1, 0}, {0, 1}}
	for _, exp := range objectives {
		for _, n := range []int{1, 2, 5, len(vecs)} {
			vals, err := sur.PredictBatch(vecs[:n], exp[0], exp[1], nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				want, err := predictOne(sur, vecs[i], exp[0], exp[1])
				if err != nil {
					t.Fatal(err)
				}
				if vals[i] != want {
					t.Fatalf("exp=%v n=%d: PredictBatch[%d]=%v, 1-row=%v",
						exp, n, i, vals[i], want)
				}
			}
		}
	}
}

// TestGradientBatchBitIdenticalToScalar pins the batched gradient path
// against 1-row calls, values and every gradient coordinate.
func TestGradientBatchBitIdenticalToScalar(t *testing.T) {
	sur, vecs := batchFixture(t)
	for _, exp := range [][2]float64{{1, 1}, {1, 2}} {
		vals, grads, err := sur.GradientBatch(vecs, exp[0], exp[1], nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, vec := range vecs {
			wantV, wantG, err := gradientOne(sur, vec, exp[0], exp[1])
			if err != nil {
				t.Fatal(err)
			}
			if vals[i] != wantV {
				t.Fatalf("exp=%v: value[%d] batch=%v 1-row=%v", exp, i, vals[i], wantV)
			}
			for j := range wantG {
				if grads[i][j] != wantG[j] {
					t.Fatalf("exp=%v: grad[%d][%d] batch=%v 1-row=%v",
						exp, i, j, grads[i][j], wantG[j])
				}
			}
		}
	}
}

// TestBatchReusesDestinations checks the allocation-avoidance contract:
// correctly-sized dst buffers are reused, not replaced.
func TestBatchReusesDestinations(t *testing.T) {
	sur, vecs := batchFixture(t)
	vals := make([]float64, len(vecs))
	got, err := sur.PredictBatch(vecs, 1, 1, vals)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &vals[0] {
		t.Fatal("PredictBatch did not reuse the provided dst")
	}
	grads := make([][]float64, len(vecs))
	for i := range grads {
		grads[i] = make([]float64, sur.Net.InDim())
	}
	keep := grads[0]
	_, gotG, err := sur.GradientBatch(vecs, 1, 1, vals, grads)
	if err != nil {
		t.Fatal(err)
	}
	if &gotG[0][0] != &keep[0] {
		t.Fatal("GradientBatch did not reuse the provided grads rows")
	}
}

// TestBatchValidation pins error cases: wrong input width, non-EDP
// objective on a direct-EDP surrogate, empty batches.
func TestBatchValidation(t *testing.T) {
	sur, vecs := batchFixture(t)
	if _, err := sur.PredictBatch([][]float64{{1, 2}}, 1, 1, nil); err == nil {
		t.Fatal("expected width error")
	}
	if _, _, err := sur.GradientBatch([][]float64{{1, 2}}, 1, 1, nil, nil); err == nil {
		t.Fatal("expected width error")
	}
	if vals, err := sur.PredictBatch(nil, 1, 1, nil); err != nil || len(vals) != 0 {
		t.Fatalf("empty batch: vals=%v err=%v", vals, err)
	}
	direct := &Surrogate{
		AlgoName:   sur.AlgoName,
		Net:        sur.Net,
		InNorm:     sur.InNorm,
		OutNorm:    sur.OutNorm,
		Mode:       OutputDirectEDP,
		NumTensors: sur.NumTensors,
	}
	if _, err := direct.PredictBatch(vecs[:1], 1, 2, nil); err == nil {
		t.Fatal("expected mode error for non-EDP objective on direct surrogate")
	}
}

// TestBatchConcurrentUse exercises the batch scratch pool under -race:
// many goroutines issuing prediction and gradient batches concurrently
// must agree with a serial reference.
func TestBatchConcurrentUse(t *testing.T) {
	sur, vecs := batchFixture(t)
	ref, err := sur.PredictBatch(vecs, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				if g%2 == 0 {
					vals, err := sur.PredictBatch(vecs, 1, 1, nil)
					if err != nil {
						errs <- err
						return
					}
					for i := range vals {
						if vals[i] != ref[i] {
							t.Errorf("goroutine %d: vals[%d]=%v, want %v", g, i, vals[i], ref[i])
							return
						}
					}
				} else {
					if _, _, err := sur.GradientBatch(vecs, 1, 1, nil, nil); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// newSyntheticSurrogate builds an untrained surrogate with the given
// topology and identity normalizers — weights are random but the compute
// shape matches a trained model, which is all throughput benchmarks need.
func newSyntheticSurrogate(tb testing.TB, inDim int, hidden []int, numTensors int) *Surrogate {
	tb.Helper()
	outDim := int(arch.NumLevels)*numTensors + 3
	sizes := append(append([]int{inDim}, hidden...), outDim)
	net, err := nn.NewMLP(sizes, stats.NewRNG(5))
	if err != nil {
		tb.Fatal(err)
	}
	ident := func(d int) *stats.Normalizer {
		n := &stats.Normalizer{Mean: make([]float64, d), Std: make([]float64, d)}
		for i := range n.Std {
			n.Std[i] = 1
		}
		return n
	}
	return &Surrogate{
		AlgoName:   "synthetic",
		Net:        net,
		InNorm:     ident(inDim),
		OutNorm:    ident(outDim),
		Mode:       OutputMetaStats,
		LogOutputs: true,
		NumTensors: numTensors,
	}
}
