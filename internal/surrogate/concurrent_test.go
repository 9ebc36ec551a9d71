package surrogate

import (
	"math"
	"sync"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/stats"
)

// TestConcurrentPrediction exercises every prediction and gradient entry
// point, as 1-row queries, from many goroutines against one shared
// surrogate, checking that concurrent results match a single-threaded
// baseline (run with -race to
// catch scratch-buffer sharing regressions — the serve job manager depends
// on this property).
func TestConcurrentPrediction(t *testing.T) {
	_, sur, _ := cnnFixture(t)
	p, err := loopnest.NewCNNProblem("conc", 1, 32, 16, 7, 7, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	space, err := mapspace.New(arch.Default(2), p)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(11)
	const nVecs = 8
	vecs := make([][]float64, nVecs)
	wantEDP := make([]float64, nVecs)
	wantGrad := make([][]float64, nVecs)
	for i := range vecs {
		m := space.Random(rng)
		vecs[i] = space.Encode(&m)
		edp, grad, err := gradientOne(sur, vecs[i], 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantEDP[i] = edp
		wantGrad[i] = grad
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				i := (g + iter) % nVecs
				edp, grad, err := gradientOne(sur, vecs[i], 1, 1)
				if err != nil {
					errs <- err
					return
				}
				if edp != wantEDP[i] {
					t.Errorf("concurrent GradientBatch drifted: %v != %v", edp, wantEDP[i])
					return
				}
				for j := range grad {
					if grad[j] != wantGrad[i][j] {
						t.Errorf("concurrent gradient drifted at %d", j)
						return
					}
				}
				if p, err := predictOne(sur, vecs[i], 1, 1); err != nil || p != wantEDP[i] {
					t.Errorf("concurrent PredictBatch drifted: %v (err %v)", p, err)
					return
				}
				if _, err := sur.PredictMetaStats(vecs[i]); err != nil {
					errs <- err
					return
				}
				if v, err := predictOne(sur, vecs[i], 1, 2); err != nil || math.IsNaN(v) {
					errs <- err
					return
				}
				if _, _, err := gradientOne(sur, vecs[i], 0, 1); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
