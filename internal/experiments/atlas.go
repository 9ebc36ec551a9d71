package experiments

import (
	"fmt"
	"io"
	"slices"

	"mindmappings/internal/atlas"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/search"
)

// Atlas warm-start study: the mapping atlas answers repeat shapes by
// lookup, but its second claim is that a *near-miss* shape benefits too —
// the nearest solved neighbor's mapping, re-projected into the target map
// space, seeds the MM descent closer to the optimum than a random start
// ("Demystifying Map Space Exploration for NPUs" calls this mapping
// transfer). This sweep quantifies that: for every registered workload,
// solve a donor problem, warm-start the neighboring problem from it, and
// count how many evaluations the warm run needs to reach the cold run's
// final best.

// AtlasRow is one workload's cold vs warm-started MM comparison.
type AtlasRow struct {
	Workload string
	// Donor and Target are the two problem instances: the donor plays the
	// stored atlas entry, the target the incoming near-miss request.
	Donor, Target string
	// Distance is the atlas neighbor metric between the two shapes
	// (Euclidean in log2 space).
	Distance float64
	// ColdBest is the cold run's final best normalized EDP — the bar the
	// warm run must reach; ColdEvals is when the cold run reached it.
	ColdBest  float64
	ColdEvals int
	// WarmEvals is when the warm-started run first matched ColdBest
	// (0 when it never did); WarmBest is its final best.
	WarmEvals int
	WarmBest  float64
	// Matched reports whether the warm run reached ColdBest at all;
	// Ratio is WarmEvals/ColdEvals when it did (< 1 means the warm start
	// paid off, the headline claim being <= 0.5).
	Matched bool
	Ratio   float64
}

// AtlasSweep runs the warm-start study across every registered workload.
func (h *Harness) AtlasSweep(w io.Writer) ([]AtlasRow, error) {
	return h.AtlasSweepFor(w, loopnest.AlgorithmNames())
}

// AtlasSweepFor runs the warm-start study across the named workloads. Per
// workload: the donor is the deterministic mid-size instance (the same one
// WorkloadSweep searches), the target bumps one dimension to its next
// sample value — exactly the near-miss an atlas family lookup serves.
// Cold and warm runs share the RNG seed, so the only difference is the
// seeded start.
func (h *Harness) AtlasSweepFor(w io.Writer, names []string) ([]AtlasRow, error) {
	budget := search.Budget{MaxEvals: h.opts.IsoIterations}
	fmt.Fprintf(w, "== atlas warm start: cold vs neighbor-seeded MM, %d evals each ==\n", budget.MaxEvals)
	fmt.Fprintf(w, "%-16s %-30s %6s %10s %8s %8s %8s\n",
		"workload", "target", "dist", "cold best", "cold@", "warm@", "ratio")
	var out []AtlasRow
	for _, name := range names {
		donor, err := representativeProblem(name)
		if err != nil {
			return nil, err
		}
		target, err := neighborProblem(donor)
		if err != nil {
			return nil, err
		}
		sur, err := h.Surrogate(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: training %s surrogate: %w", name, err)
		}
		// Cold: MM on the target from a random start. Donor: MM on the
		// neighboring problem, the atlas entry's content.
		mm := search.MindMappings{Surrogate: sur}
		cold := cell{prob: target, searcher: mm, label: "cold MM", seed: h.opts.Seed + 31, budget: budget}
		donorCell := cell{prob: donor, searcher: mm, label: "donor MM", seed: cold.seed + 1, budget: budget}
		rows, err := h.run([]cell{cold, donorCell}, nil)
		if err != nil {
			return nil, err
		}
		// Warm: the cold cell, seeded with the donor's best mapping.
		warm := cold
		warm.label, warm.start = "warm MM", &rows[1].Best
		warmRows, err := h.run([]cell{warm}, nil)
		if err != nil {
			return nil, err
		}

		coldBest := rows[0].BestEDP
		row := AtlasRow{
			Workload:  name,
			Donor:     donor.String(),
			Target:    target.String(),
			Distance:  atlas.ShapeDistance(donor.Shape, target.Shape),
			ColdBest:  coldBest,
			ColdEvals: evalsToReach(&rows[0].Result, coldBest),
			WarmBest:  warmRows[0].BestEDP,
			WarmEvals: evalsToReach(&warmRows[0].Result, coldBest),
		}
		row.Matched = row.WarmEvals > 0
		if row.Matched && row.ColdEvals > 0 {
			row.Ratio = float64(row.WarmEvals) / float64(row.ColdEvals)
		}
		out = append(out, row)
		ratio := "   never"
		if row.Matched {
			ratio = fmt.Sprintf("%7.2fx", row.Ratio)
		}
		fmt.Fprintf(w, "%-16s %-30s %6.2f %10.1f %8d %8d %s\n",
			row.Workload, row.Target, row.Distance, row.ColdBest, row.ColdEvals, row.WarmEvals, ratio)
	}
	fmt.Fprintln(w, "(cold@ / warm@: evaluations until the run first reaches the cold run's final best; ratio < 1 means the neighbor seed reached it sooner)")
	return out, nil
}

// evalsToReach returns the 1-based evaluation index at which the run first
// attained cost <= target, or 0 if it never did. The crossing is an
// improvement, and every improvement is a trajectory sample.
func evalsToReach(r *search.Result, target float64) int {
	for _, s := range r.Trajectory {
		if s.BestEDP <= target {
			return s.Eval
		}
	}
	return 0
}

// neighborProblem builds the near-miss instance of a representative
// problem: its first growable dimension bumped to the next sample value
// (the previous one when the middle is the last), the smallest shape
// perturbation the training distribution defines.
func neighborProblem(mid loopnest.Problem) (loopnest.Problem, error) {
	algo, shape := mid.Algo, slices.Clone(mid.Shape)
	for d, vals := range algo.SampleSpace {
		if len(vals) < 2 {
			continue
		}
		i := len(vals)/2 + 1
		if i == len(vals) {
			i -= 2
		}
		shape[d] = vals[i]
		return algo.NewProblem(algo.Name+"-near", shape)
	}
	return loopnest.Problem{}, fmt.Errorf("experiments: %s has no dimension to perturb", algo.Name)
}
