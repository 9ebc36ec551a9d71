package experiments

import (
	"fmt"
	"io"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/search"
)

// Cost-model head-to-head: "Demystifying Map Space Exploration for NPUs"
// (Kao et al.) shows mapper conclusions shift with the cost model. With
// the costmodel layer in place we can measure that directly: run the same
// search under every registered backend, then cross-score each backend's
// winning mapping under all the others.

// CostModelRun is one row of the head-to-head: a search driven by one
// backend, with its best mapping re-scored by every backend.
type CostModelRun struct {
	// SearchedWith is the backend that served as the search's cost
	// function f.
	SearchedWith string
	// Evals and NativeEDP summarize the run under its own backend
	// (normalized to the algorithmic minimum).
	Evals     int
	NativeEDP float64
	// ScoredBy[b] is backend b's normalized EDP of this run's best
	// mapping. ScoredBy[SearchedWith] == NativeEDP.
	ScoredBy map[string]float64
}

// CostModelHeadToHead runs the same black-box search (SA, which needs no
// surrogate) on the first target problem once per registered backend and
// cross-scores the winners. Disagreement between the rows is the
// motivation for the pluggable evaluation seam: a mapping that looks best
// under an optimistic model need not be best under the reference model.
func (h *Harness) CostModelHeadToHead(w io.Writer) ([]CostModelRun, error) {
	problems, err := h.Problems()
	if err != nil {
		return nil, err
	}
	prob := problems[0]
	a := arch.Default(len(prob.Algo.Tensors) - 1)
	backends := costmodel.Names()
	budget := search.Budget{MaxEvals: h.opts.IsoIterations}
	cells := make([]cell, len(backends))
	for i, name := range backends {
		cells[i] = cell{prob: prob, searcher: search.SimulatedAnnealing{}, label: "SA under " + name,
			seed: h.opts.Seed, budget: budget, backend: name}
	}
	rows, err := h.run(cells, nil)
	if err != nil {
		return nil, err
	}

	var out []CostModelRun
	for i, name := range backends {
		run := CostModelRun{
			SearchedWith: name,
			Evals:        rows[i].Evals,
			NativeEDP:    rows[i].BestEDP,
			ScoredBy:     map[string]float64{},
		}
		for _, scorer := range backends {
			sc, err := search.NewContext(scorer, a, prob)
			if err != nil {
				return nil, err
			}
			cost, err := costmodel.Evaluate(nil, sc.Model, &rows[i].Best)
			if err != nil {
				return nil, fmt.Errorf("experiments: scoring %s's winner with %s: %w", name, scorer, err)
			}
			run.ScoredBy[scorer] = sc.Bound.NormalizeEDP(cost.EDP)
		}
		out = append(out, run)
	}

	fmt.Fprintf(w, "== cost-model head-to-head: SA on %s, %d evals per backend ==\n",
		prob.Name, budget.MaxEvals)
	fmt.Fprintf(w, "%-14s %10s", "searched with", "evals")
	for _, scorer := range backends {
		fmt.Fprintf(w, " %14s", "EDP/"+scorer)
	}
	fmt.Fprintln(w)
	for _, run := range out {
		fmt.Fprintf(w, "%-14s %10d", run.SearchedWith, run.Evals)
		for _, scorer := range backends {
			fmt.Fprintf(w, " %14.1f", run.ScoredBy[scorer])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(rows: the searcher's cost function; columns: each backend re-scoring that row's best mapping)")
	return out, nil
}
