// Custom-algorithm example: Mind Mappings is target-domain independent
// (paper contribution 1: "we require neither expert knowledge in the target
// application domain(s), nor any domain specific heuristics"). This example
// shows what a downstream user does to map a brand-new algorithm onto the
// accelerator: write its einsum as a one-line declarative spec — here the
// Tucker-style tensor-times-matrix-chain contraction TTMc, which appears
// nowhere in the paper or the built-in registry — and everything else (loop
// dimensions, tensor footprints, map space, cost model, surrogate training,
// gradient search) is derived for free.
//
// Run with: go run ./examples/customalgo
package main

import (
	"fmt"
	"log"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/core"
	"mindmappings/internal/search"
	"mindmappings/internal/surrogate"
	"mindmappings/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// TTMc: O[i,j,k] = Σ_l Σ_m A[i,l,m]·B[l,j]·C[m,k] — a 3-operand
	// contraction from Tucker decomposition. The spec is the whole
	// "integration": the compiler derives dimensions (i,j,k,l,m), each
	// tensor's relevance set and footprint, and the output tensor; the
	// sample space guides Phase-1 problem sampling. Compiling is enough to
	// map it; workload.Register would also make it addressable by name
	// (CLI, HTTP service, dataset files) in this process.
	algo, err := workload.Compile(workload.Spec{
		Name: "ttmc",
		Expr: "O[i,j,k] += A[i,l,m] * B[l,j] * C[m,k]",
		SampleSpace: map[string][]int{
			"i": {32, 64, 128, 256},
			"j": {8, 16, 32},
			"k": {8, 16, 32},
			"l": {32, 64, 128, 256},
			"m": {32, 64, 128, 256},
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("compiled %q: %d dims, %d tensors, %d operands/MAC, fingerprint %.12s…\n\n",
		algo.Name, algo.NumDims(), len(algo.Tensors), algo.OperandsPerMAC, algo.Fingerprint())

	// The TTMc datapath consumes 3 operands per MAC, like MTTKRP.
	mapper, err := core.NewMapper(algo, arch.Default(len(algo.Tensors)-1))
	if err != nil {
		return err
	}

	fmt.Println("phase 1: training a surrogate for the brand-new ttmc workload...")
	cfg := surrogate.TinyConfig()
	cfg.Samples = 5000
	start := time.Now()
	if _, err := mapper.TrainSurrogate(cfg); err != nil {
		return err
	}
	fmt.Printf("  done in %v\n\n", time.Since(start).Round(time.Millisecond))

	// Target: a Tucker-rank shape the surrogate never saw.
	prob, err := algo.ProblemFromDims("tucker-384", map[string]int{
		"i": 384, "j": 24, "k": 24, "l": 96, "m": 96,
	})
	if err != nil {
		return err
	}
	pc, err := mapper.NewProblemContext(prob)
	if err != nil {
		return err
	}

	fmt.Printf("phase 2: mapping %s (%.3g MACs, |M| <= 10^%.1f)\n",
		prob.String(), prob.MACs(), pc.Space.SizeLog10())
	res, err := mapper.FindMapping(pc, search.Budget{MaxEvals: 600}, 1)
	if err != nil {
		return err
	}
	cost, norm, err := pc.Evaluate(&res.Best)
	if err != nil {
		return err
	}
	fmt.Printf("\nbest mapping: %.1fx the algorithmic minimum "+
		"(%.4g pJ, %.4g cycles, %.0f%% utilization)\n\n",
		norm, cost.TotalEnergyPJ, cost.Cycles, 100*cost.Utilization)
	fmt.Print(pc.Space.RenderLoopNest(&res.Best))

	// Sanity reference: plain SA on the same budget.
	pc2, err := mapper.NewProblemContext(prob)
	if err != nil {
		return err
	}
	saRes, err := mapper.SearchWith(search.SimulatedAnnealing{}, pc2, search.Budget{MaxEvals: 600}, 1)
	if err != nil {
		return err
	}
	fmt.Printf("\nreference: SA with the same budget reaches %.1fx (MM: %.1fx)\n",
		saRes.BestEDP, res.BestEDP)
	return nil
}
