// Costmodels: the pluggable cost-model layer in action. The paper treats
// the cost function f as an exchangeable component (§2.3); this example
// runs the same black-box search against two registered backends — the
// reference Timeloop-style reuse-analysis model ("timeloop") and the
// optimistic roofline/lower-bound model ("roofline") — then cross-scores
// each winner under the other backend, the head-to-head that motivates
// the costmodel seam (mapper conclusions shift with the cost model).
//
// Run with: go run ./examples/costmodels
package main

import (
	"fmt"
	"log"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/oracle"
	"mindmappings/internal/search"

	_ "mindmappings/internal/timeloop" // register the reference backend
	_ "mindmappings/internal/workload" // register the built-in workloads
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	accel := arch.Default(2)
	prob, err := loopnest.NewCNNProblem("ResNet_Conv_4", 16, 256, 256, 14, 14, 3, 3)
	if err != nil {
		return err
	}

	fmt.Printf("registered cost-model backends: %v\n\n", costmodel.Names())
	type winner struct {
		backend string
		best    mapspace.Mapping
		bound   oracle.Bound
	}
	var winners []winner
	for _, name := range costmodel.Names() {
		sctx, err := search.NewContext(name, accel, prob)
		if err != nil {
			return err
		}
		sctx.Seed = 1
		res, err := search.SimulatedAnnealing{}.Search(sctx, search.Budget{MaxEvals: 2000})
		if err != nil {
			return err
		}
		fmt.Printf("SA under %-9s %5d evals in %-8v best %.1fx minimum (by its own estimate)\n",
			name+":", res.Evals, res.Elapsed.Round(1e6), res.BestEDP)
		winners = append(winners, winner{backend: name, best: res.Best, bound: sctx.Bound})
	}

	fmt.Println("\ncross-scoring each winner under every backend (normalized EDP):")
	for _, w := range winners {
		fmt.Printf("  winner found with %-9s", w.backend+":")
		for _, scorer := range costmodel.Names() {
			ev, err := costmodel.New(scorer, accel, prob)
			if err != nil {
				return err
			}
			cost, err := costmodel.Evaluate(nil, ev, &w.best)
			if err != nil {
				return err
			}
			fmt.Printf("  %s %.1fx", scorer, w.bound.NormalizeEDP(cost.EDP))
		}
		fmt.Println()
	}
	fmt.Println("\n(an optimistic backend's favorite mapping is not automatically the")
	fmt.Println(" reference model's favorite — that gap is why f is pluggable)")
	return nil
}
