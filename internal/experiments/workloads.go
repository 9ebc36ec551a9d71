package experiments

import (
	"fmt"
	"io"

	"mindmappings/internal/loopnest"
	"mindmappings/internal/search"
	"mindmappings/internal/workload"
)

// Workload-sweep study: "Demystifying Map Space Exploration for NPUs"
// (Kao et al.) shows mapper conclusions measured on one workload family do
// not transfer for free — a searcher tuned on CNN layers can rank
// differently on GEMM-shaped or depthwise spaces. With the declarative
// workload layer every registered einsum is searchable, so we can measure
// that directly: run the strongest black-box baseline (GA) against Mind
// Mappings on a representative problem of every registered workload, each
// MM run guided by a surrogate trained for that workload.

// WorkloadRow is one workload's GA vs Mind Mappings head-to-head.
type WorkloadRow struct {
	Workload string
	// NumDims and NumTensors summarize the compiled algorithm's shape.
	NumDims, NumTensors int
	// Problem is the representative instance searched (canonical sizes).
	Problem string
	// GAEDP and MMEDP are final best normalized EDPs under the shared
	// iso-iteration budget; Ratio is GA/MM (>1 means MM wins).
	GAEDP, MMEDP float64
	Ratio        float64
}

// WorkloadSweep runs the head-to-head across every registered workload.
func (h *Harness) WorkloadSweep(w io.Writer) ([]WorkloadRow, error) {
	return h.WorkloadSweepFor(w, workload.Names())
}

// WorkloadSweepFor runs the head-to-head across the named workloads. The
// representative problem takes each dimension's middle sample value, so the
// sweep is deterministic and sized like the Phase-1 training distribution.
func (h *Harness) WorkloadSweepFor(w io.Writer, names []string) ([]WorkloadRow, error) {
	budget := search.Budget{MaxEvals: h.opts.IsoIterations}
	fmt.Fprintf(w, "== workload sweep: GA vs Mind Mappings, %d evals each (normalized EDP; lower is better) ==\n",
		budget.MaxEvals)
	fmt.Fprintf(w, "%-16s %5s %8s %-34s %10s %10s %8s\n",
		"workload", "dims", "tensors", "problem", "GA", "MM", "GA/MM")
	var out []WorkloadRow
	for _, name := range names {
		prob, err := representativeProblem(name)
		if err != nil {
			return nil, err
		}
		sur, err := h.Surrogate(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: training %s surrogate: %w", name, err)
		}
		rows, err := h.run([]cell{
			{prob: prob, searcher: search.GeneticAlgorithm{}, seed: h.opts.Seed + 11, budget: budget},
			{prob: prob, searcher: search.MindMappings{Surrogate: sur}, seed: h.opts.Seed + 11, budget: budget},
		}, nil)
		if err != nil {
			return nil, err
		}
		row := WorkloadRow{
			Workload:   name,
			NumDims:    prob.Algo.NumDims(),
			NumTensors: len(prob.Algo.Tensors),
			Problem:    prob.String(),
			GAEDP:      rows[0].BestEDP,
			MMEDP:      rows[1].BestEDP,
		}
		if row.MMEDP > 0 {
			row.Ratio = row.GAEDP / row.MMEDP
		}
		out = append(out, row)
		fmt.Fprintf(w, "%-16s %5d %8d %-34s %10.1f %10.1f %7.2fx\n",
			row.Workload, row.NumDims, row.NumTensors, row.Problem, row.GAEDP, row.MMEDP, row.Ratio)
	}
	fmt.Fprintln(w, "(each MM run is guided by a surrogate trained for that workload; GA is the strongest black-box baseline at iso-iterations)")
	return out, nil
}

// representativeProblem builds the deterministic mid-size instance of the
// named algorithm: every dimension at its middle representative sample
// value.
func representativeProblem(name string) (loopnest.Problem, error) {
	algo, err := loopnest.AlgorithmByName(name)
	if err != nil {
		return loopnest.Problem{}, fmt.Errorf("experiments: %w", err)
	}
	shape := make([]int, algo.NumDims())
	for d := range shape {
		vals := algo.SampleSpace[d]
		if len(vals) == 0 {
			return loopnest.Problem{}, fmt.Errorf("experiments: %s: dimension %s has no sample space", name, algo.DimNames[d])
		}
		shape[d] = vals[len(vals)/2]
	}
	return algo.NewProblem(algo.Name+"-mid", shape)
}
