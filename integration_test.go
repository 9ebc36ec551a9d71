// End-to-end integration tests: the full Phase-1 + Phase-2 pipeline
// through the public core API, including surrogate persistence, exactly as
// a downstream user would drive it.
package mindmappings_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"mindmappings/internal/core"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/search"
	"mindmappings/internal/stats"
	"mindmappings/internal/surrogate"

	archpkg "mindmappings/internal/arch"
)

var (
	integOnce sync.Once
	integMp   *core.Mapper
	integErr  error
)

// integrationMapper trains one Conv1D mapper shared by the integration
// tests.
func integrationMapper(t *testing.T) *core.Mapper {
	t.Helper()
	integOnce.Do(func() {
		mp, err := core.NewMapper(loopnest.MustAlgorithm("conv1d"), archpkg.Default(2))
		if err != nil {
			integErr = err
			return
		}
		cfg := surrogate.TinyConfig()
		cfg.Samples = 2500
		cfg.Problems = 6
		cfg.Train.Epochs = 12
		if _, err := mp.TrainSurrogate(cfg); err != nil {
			integErr = err
			return
		}
		integMp = mp
	})
	if integErr != nil {
		t.Fatal(integErr)
	}
	return integMp
}

// TestPipelineEndToEnd exercises train -> save -> load -> search -> verify
// on an unseen problem.
func TestPipelineEndToEnd(t *testing.T) {
	mp := integrationMapper(t)

	// Persist and reload the surrogate through a fresh mapper, as a
	// compile-time integration would.
	var blob bytes.Buffer
	if err := mp.SaveSurrogate(&blob); err != nil {
		t.Fatal(err)
	}
	fresh, err := core.NewMapper(loopnest.MustAlgorithm("conv1d"), archpkg.Default(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadSurrogate(&blob); err != nil {
		t.Fatal(err)
	}

	prob, err := loopnest.NewConv1DProblem("integration", 4096, 9)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := fresh.NewProblemContext(prob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fresh.FindMapping(pc, search.Budget{MaxEvals: 300}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.IsMember(&res.Best); err != nil {
		t.Fatalf("pipeline produced invalid mapping: %v", err)
	}

	// The result must beat the average random mapping by a wide margin.
	rng := stats.NewRNG(12)
	var mean stats.Running
	for i := 0; i < 50; i++ {
		m := pc.GetMapping(rng)
		_, edp, err := pc.Evaluate(&m)
		if err != nil {
			t.Fatal(err)
		}
		mean.Add(edp)
	}
	if res.BestEDP > 0.5*mean.Mean() {
		t.Fatalf("pipeline result %v does not beat mean random %v", res.BestEDP, mean.Mean())
	}

	// The rendered loop nest must reflect the mapping.
	nest := pc.Space.RenderLoopNest(&res.Best)
	if len(nest) == 0 {
		t.Fatal("empty loop nest rendering")
	}
}

// TestPipelineSurrogateReusedAcrossProblems verifies the paper's central
// amortization claim: one surrogate serves many problems of the algorithm.
func TestPipelineSurrogateReusedAcrossProblems(t *testing.T) {
	mp := integrationMapper(t)
	for _, spec := range []struct {
		name string
		w, r int
	}{
		{"p1", 1024, 3},
		{"p2", 2048, 5},
		{"p3", 512, 8},
	} {
		prob, err := loopnest.NewConv1DProblem(spec.name, spec.w, spec.r)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := mp.NewProblemContext(prob)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mp.FindMapping(pc, search.Budget{MaxEvals: 150}, 3)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if res.BestEDP < 1 {
			t.Fatalf("%s: EDP %v below the lower bound", spec.name, res.BestEDP)
		}
	}
}

// TestPipelineIsoTimeAdvantage verifies the end-to-end iso-time mechanism:
// under charged reference-model latency, the gradient search completes many
// more steps than a paid baseline in the same time budget.
func TestPipelineIsoTimeAdvantage(t *testing.T) {
	mp := integrationMapper(t)
	prob, err := loopnest.NewConv1DProblem("isotime", 2048, 4)
	if err != nil {
		t.Fatal(err)
	}
	budget := search.Budget{MaxTime: 80 * time.Millisecond}

	pcSA, err := mp.NewProblemContext(prob)
	if err != nil {
		t.Fatal(err)
	}
	pcSA.QueryLatency = 2 * time.Millisecond
	saRes, err := mp.SearchWith(search.SimulatedAnnealing{}, pcSA, budget, 5)
	if err != nil {
		t.Fatal(err)
	}

	pcMM, err := mp.NewProblemContext(prob)
	if err != nil {
		t.Fatal(err)
	}
	mmRes, err := mp.FindMapping(pcMM, budget, 5)
	if err != nil {
		t.Fatal(err)
	}
	if mmRes.Evals < 4*saRes.Evals {
		t.Fatalf("MM steps (%d) not clearly above SA steps (%d) at iso-time", mmRes.Evals, saRes.Evals)
	}
}
